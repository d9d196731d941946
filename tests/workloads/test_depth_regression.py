"""Regression guards on the workload suite's depth statistics.

The calibration (EXPERIMENTS.md) relies on the suite matching the paper's
Fig. 4/5 depth character; these tests freeze that property so future
scene edits cannot silently break the reproduction.  Run at reduced
resolution for speed — the statistics are resolution-stable enough for
the band checks below.
"""

import pytest

from repro.runtime.cache import CachedWorkloadCache
from repro.trace.depth import bucket_fractions, depth_histogram, depth_statistics
from repro.workloads.params import WorkloadParams


@pytest.fixture(scope="module")
def cache():
    return CachedWorkloadCache(params=WorkloadParams().scaled(0.5))


@pytest.fixture(scope="module")
def all_traces(cache):
    traces = []
    for name in cache.names:
        traces.extend(cache.traced(name))
    return traces


def test_aggregate_depth_bands(all_traces):
    """Paper Fig. 4: avg/median 4-5, max ~30 (we accept 20-45)."""
    stats = depth_statistics(all_traces)
    assert 3.5 <= stats.avg_depth <= 7.0
    assert 3.0 <= stats.median_depth <= 7.0
    assert 18 <= stats.max_depth <= 45


def test_aggregate_bucket_bands(all_traces):
    """Paper Fig. 5: ~81% / 17% / 1.9% across 1-8 / 9-16 / >16."""
    low, mid, high = bucket_fractions(depth_histogram(all_traces))
    assert 0.70 <= low <= 0.92
    assert 0.06 <= mid <= 0.26
    assert 0.0 <= high <= 0.06


def test_heavyweights_deepest(cache):
    depths = {
        name: depth_statistics(cache.traced(name)).avg_depth
        for name in ("ROBOT", "CAR", "WKND", "BUNNY", "REF")
    }
    assert depths["ROBOT"] > depths["WKND"]
    assert depths["ROBOT"] > depths["BUNNY"]
    assert depths["CAR"] > depths["REF"]


def test_simple_scenes_fit_in_eight_entries(cache):
    """REF and BATH must stay mostly within the 8-entry primary stack —
    the paper notes they gain least from SMS."""
    for name in ("REF", "BATH"):
        low, _, _ = bucket_fractions(
            depth_histogram(cache.traced(name))
        )
        assert low >= 0.9


def test_ship_leaf_heavy(cache):
    """SHIP's slivers give it the paper's high leaf-access ratio."""
    from repro.trace.events import NodeKind

    traces = cache.traced("SHIP")
    leaf = sum(
        1 for t in traces for s in t.steps if s.kind is NodeKind.LEAF
    )
    total = sum(t.step_count for t in traces)
    assert leaf / total > 0.35
