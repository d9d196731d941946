"""End-to-end checks of the paper's qualitative claims.

Run at moderate scale over a few representative scenes, these assert the
*shape* of the paper's results: orderings and directions, not absolute
numbers (see EXPERIMENTS.md for the full-scale quantitative comparison).
"""

import pytest

from repro.core.presets import (
    baseline_config,
    full_stack_config,
    sms_config,
)
from repro.experiments.common import mean_row, normalized_ipc
from repro.runtime.cache import CachedWorkloadCache
from repro.workloads.params import WorkloadParams


@pytest.fixture(scope="module")
def cache():
    return CachedWorkloadCache(
        params=WorkloadParams().scaled(0.5),
        scene_names=["CRNVL", "PARTY", "SHIP"],
    )


@pytest.fixture(scope="module")
def ladder(cache):
    configs = [
        baseline_config(rb_entries=2),
        baseline_config(rb_entries=4),
        baseline_config(rb_entries=8),
        baseline_config(rb_entries=16),
        sms_config(skewed=False, realloc=False),
        sms_config(skewed=True, realloc=False),
        sms_config(skewed=True, realloc=True),
        sms_config(rb_entries=2),
        full_stack_config(),
    ]
    results = cache.sweep(configs)
    return results, mean_row(normalized_ipc(results, "RB_8"))


def test_smaller_stacks_are_slower(ladder):
    """Fig. 6a's ordering: RB_2 < RB_4 < RB_8 < RB_16."""
    _, means = ladder
    assert means["RB_2"] < means["RB_4"] < 1.0 < means["RB_16"]


def test_sms_improves_over_baseline(ladder):
    """Fig. 13's headline: the SH stack lifts IPC over RB_8."""
    _, means = ladder
    assert means["RB_8+SH_8"] > 1.0


def test_reallocation_adds_on_top(ladder):
    """+RA beats plain +SK (Fig. 13's final bar)."""
    _, means = ladder
    assert means["RB_8+SH_8+SK+RA"] >= means["RB_8+SH_8+SK"] - 0.005


def test_sms_close_to_full_stack(ladder):
    """The paper's key claim: SMS approaches the impractical full stack."""
    _, means = ladder
    gap = means["RB_FULL"] - means["RB_8+SH_8+SK+RA"]
    total_headroom = means["RB_FULL"] - 1.0
    assert gap <= 0.5 * total_headroom


def test_tiny_rb_with_sms_beats_baseline(ladder):
    """Fig. 15a: RB_2 + SMS outperforms the RB_8 baseline."""
    _, means = ladder
    assert means["RB_2+SH_8+SK+RA"] > 1.0


def test_offchip_tracks_spills(ladder):
    """Fig. 15b: RB_2 inflates off-chip traffic; SMS removes it."""
    results, _ = ladder
    for scene in results:
        base = results[scene]["RB_8"].offchip_accesses
        assert results[scene]["RB_2"].offchip_accesses > base
        assert results[scene]["RB_8+SH_8+SK+RA"].offchip_accesses < base


def test_sms_moves_traffic_to_shared_memory(ladder):
    """Fig. 7's mechanism: SH stack absorbs what went to global memory."""
    results, _ = ladder
    for scene in results:
        base = results[scene]["RB_8"].counters
        sms = results[scene]["RB_8+SH_8"].counters
        assert base.stack_shared_ops == 0
        assert sms.stack_shared_ops > 0
        assert sms.stack_global_ops < base.stack_global_ops


def test_skew_reduces_bank_conflict_delay(ladder):
    """Fig. 14's direction, aggregated over the scenes."""
    results, _ = ladder
    before = sum(
        results[s]["RB_8+SH_8"].counters.bank_conflict_delay_cycles
        for s in results
    )
    after = sum(
        results[s]["RB_8+SH_8+SK"].counters.bank_conflict_delay_cycles
        for s in results
    )
    assert after < before


def test_full_stack_is_upper_bound(ladder):
    """No configuration beats RB_FULL (it does strictly less work)."""
    _, means = ladder
    best_other = max(v for k, v in means.items() if k != "RB_FULL")
    assert means["RB_FULL"] >= best_other - 0.01


def test_instructions_identical_across_ladder(ladder):
    results, _ = ladder
    for scene in results:
        counts = {r.counters.instructions for r in results[scene].values()}
        assert len(counts) == 1


def test_realloc_borrows_and_reduces_global_ops(ladder):
    results, _ = ladder
    for scene in results:
        with_ra = results[scene]["RB_8+SH_8+SK+RA"].counters
        without = results[scene]["RB_8+SH_8+SK"].counters
        assert with_ra.stack_global_ops <= without.stack_global_ops
    total_borrows = sum(
        results[s]["RB_8+SH_8+SK+RA"].counters.borrows for s in results
    )
    assert total_borrows > 0
