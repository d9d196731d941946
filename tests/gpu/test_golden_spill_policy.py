"""Pinned counters of the runs in which the L1 holds spilled stack lines.

``tests/traversal/golden_sms.json`` pins only the default ``uncached``
spill policy, under which no store ever reaches the L1.  This golden
pins every integer counter of the 16 Table II scenes for the two cached
spill policies, so the dirty-line paths of the L1 (write-back on
eviction by a node fetch, by a spill access or by a shader-pollution
burst) are bit-exact too.  Six cells per scene:

* ``RB_2`` and ``RB_4+SH_4+SK+RA`` with ``spill_cache_policy="l1"``;
* the same two with ``"l2"``;
* the same two with ``"l1"`` and a 4 KiB (32-line) L1, where every
  48-line pollution burst exceeds the L1's capacity.

The file was captured before the L1 stopped streaming pollution
addresses, and it must not be regenerated to absorb a counter change.
"""

import json
from pathlib import Path

import pytest

from repro.bvh.api import build_bvh
from repro.core.api import time_traces
from repro.core.presets import named_config
from repro.trace.path import generate_workload
from repro.workloads.lumibench import load_scene

GOLDEN_PATH = Path(__file__).parent / "golden_spill_policy.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _traces(scene_name):
    bvh = build_bvh(load_scene(scene_name))
    workload = generate_workload(
        bvh,
        width=GOLDEN["width"],
        height=GOLDEN["height"],
        spp=GOLDEN["spp"],
        max_bounces=GOLDEN["max_bounces"],
        seed=GOLDEN["seed"],
    )
    return workload.all_traces


def _int_counters(result):
    return {
        key: value
        for key, value in result.counters.as_dict().items()
        if isinstance(value, int)
    }


@pytest.mark.parametrize("scene_name", sorted(GOLDEN["scenes"]))
def test_cached_spill_counters_match_golden(scene_name):
    traces = _traces(scene_name)
    for label, cell in GOLDEN["cells"].items():
        config = named_config(cell["config"], **cell["overrides"])
        result = time_traces(traces, config=config, verify_pops=False)
        assert _int_counters(result) == GOLDEN["scenes"][scene_name][label], (
            f"{scene_name}/{label}: counters drifted from the golden capture"
        )


def test_golden_covers_dirty_l1_write_backs():
    """At least one pinned L1-cached cell writes dirty lines back."""
    l1_cells = [
        label for label, cell in GOLDEN["cells"].items()
        if cell["overrides"]["spill_cache_policy"] == "l1"
    ]
    assert l1_cells
    assert any(
        GOLDEN["scenes"][scene][label]["dram_writes"] > 0
        for scene in GOLDEN["scenes"]
        for label in l1_cells
    )
