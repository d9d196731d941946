"""Deeper assertions on experiment driver internals."""

import pytest

from repro.experiments import (
    fig4_stack_depths,
    fig5_depth_distribution,
    fig10_thread_depths,
    fig14_skewed,
)
from repro.runtime.cache import CachedWorkloadCache
from repro.workloads.params import WorkloadParams


@pytest.fixture(scope="module")
def cache():
    return CachedWorkloadCache(
        params=WorkloadParams().scaled(0.4),
        scene_names=["PARTY", "SHIP"],
    )


def test_fig10_picks_busiest_warps(cache):
    """Warps whose rays all miss (empty profiles) must not be selected."""
    result = fig10_thread_depths.run(cache, scene="PARTY", warps=2)
    for warp in result.warp_series:
        total = sum(len(lane) for lane in warp)
        assert total > 0
    # Both of the paper's imbalance observations must be measurable.
    assert 0 < result.finish_spread < 1.0
    assert 0 < result.peak_spread < 1.0


def test_fig10_warp_count_respected(cache):
    result = fig10_thread_depths.run(cache, scene="SHIP", warps=1)
    assert len(result.warp_series) == 1


def test_fig4_overall_consistent_with_per_scene(cache):
    result = fig4_stack_depths.run(cache)
    assert result.overall.max_depth == max(
        stats.max_depth for stats in result.per_scene.values()
    )
    per_scene_avgs = [s.avg_depth for s in result.per_scene.values()]
    assert min(per_scene_avgs) <= result.overall.avg_depth <= max(per_scene_avgs)


def test_fig5_fractions_sum_to_one(cache):
    result = fig5_depth_distribution.run(cache)
    assert sum(result.fractions) == pytest.approx(1.0)
    for scene_fractions in result.per_scene_fractions.values():
        assert sum(scene_fractions) == pytest.approx(1.0)


def test_fig5_histogram_counts_positive(cache):
    result = fig5_depth_distribution.run(cache)
    assert all(count > 0 for count in result.histogram.values())


def test_fig14_reduction_uses_totals():
    """Scenes with trivially small delays must not dominate the mean."""
    result = fig14_skewed.Fig14Result(
        delay_no_skew={"A": 10000, "B": 4},
        delay_skew={"A": 8000, "B": 0},
    )
    # Totals-based: (8000+0)/(10004) ~ 0.2, not the 60% a per-scene
    # average of (20%, 100%) would claim.
    assert result.reduction == pytest.approx(1 - 8000 / 10004)


def test_fig14_zero_delays():
    result = fig14_skewed.Fig14Result(delay_no_skew={}, delay_skew={})
    assert result.reduction == 0.0
