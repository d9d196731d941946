"""The refactor's contract: ``strategy="sms"`` is the pre-strategy simulator.

``golden_sms.json`` pins every integer counter the simulator produced on
all 16 Table II scenes *before* the traversal-strategy subsystem existed
(captured at the same tiny resolution this suite replays).  Any drift —
one cycle, one stack op — fails here, so the strategy seam is proven to
be a pure refactor, not a behavior change.
"""

import json
from pathlib import Path

import pytest

from repro.bvh.api import build_bvh
from repro.core.api import time_traces
from repro.core.presets import baseline_config, sms_config
from repro.guard.config import GuardConfig
from repro.trace.path import generate_workload
from repro.workloads.lumibench import load_scene

GOLDEN_PATH = Path(__file__).parent / "golden_sms.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

CONFIGS = {
    "RB_8": baseline_config,
    "RB_8+SH_8+SK+RA": sms_config,
}

#: Scenes for the (more expensive) guard cross-check.
CROSS_CHECK_SCENES = ("CRNVL", "SHIP", "CHSNT")


def _traces(scene_name):
    scene = load_scene(scene_name)
    bvh = build_bvh(scene)
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
def test_sms_strategy_reproduces_pre_refactor_counters(scene_name):
    traces = _traces(scene_name)
    for label, make_config in CONFIGS.items():
        result = time_traces(
            traces,
            config=make_config(),
            verify_pops=False,
            strategy="sms",
        )
        assert _int_counters(result) == GOLDEN["scenes"][scene_name][label], (
            f"{scene_name}/{label}: counters drifted from the pre-strategy "
            f"golden capture"
        )


@pytest.mark.parametrize("scene_name", CROSS_CHECK_SCENES)
def test_default_strategy_is_sms(scene_name):
    """``strategy=None`` and ``strategy="sms"`` are the same simulator."""
    traces = _traces(scene_name)
    config = sms_config()
    explicit = time_traces(traces, config=config, verify_pops=False,
                           strategy="sms")
    implicit = time_traces(traces, config=config, verify_pops=False)
    assert _int_counters(explicit) == _int_counters(implicit)


@pytest.mark.parametrize("scene_name", CROSS_CHECK_SCENES)
def test_guard_preserves_identity(scene_name):
    """The golden numbers hold with the guard on."""
    traces = _traces(scene_name)
    for label, make_config in CONFIGS.items():
        golden = GOLDEN["scenes"][scene_name][label]
        guarded = time_traces(
            traces,
            config=make_config(),
            verify_pops=False,
            strategy="sms",
            guard=GuardConfig(),
        )
        assert _int_counters(guarded) == golden
