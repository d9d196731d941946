"""Ray-reordering strategy: locality sort is a permutation, and stable."""

from repro.trace.ordering import (
    reorder_wave_by_locality,
    traversal_locality_key,
)
from repro.traversal import ReorderStrategy, StackStrategy


def _wave_ids(wave):
    return sorted(trace.ray_id for trace in wave)


def test_reorder_preserves_each_wave_as_multiset(small_bvh):
    base = StackStrategy().build_workload(small_bvh, width=6, height=6,
                                          max_bounces=2, seed=9)
    reordered = ReorderStrategy().build_workload(
        small_bvh, width=6, height=6, max_bounces=2, seed=9
    )
    assert len(base.waves) == len(reordered.waves)
    for before, after in zip(base.waves, reordered.waves):
        assert _wave_ids(before) == _wave_ids(after)


def test_reorder_sorts_within_waves_by_prefix(small_workload):
    for wave in small_workload.waves:
        reordered = reorder_wave_by_locality(wave, key_depth=8)
        keys = [traversal_locality_key(t, key_depth=8) for t in reordered]
        assert keys == sorted(keys)


def test_reorder_is_stable_and_deterministic(small_workload):
    wave = small_workload.waves[0]
    first = reorder_wave_by_locality(wave, key_depth=4)
    second = reorder_wave_by_locality(wave, key_depth=4)
    assert [t.ray_id for t in first] == [t.ray_id for t in second]
    # Stability: equal keys keep their original relative order.
    key_of = {id(t): traversal_locality_key(t, key_depth=4) for t in wave}
    original_rank = {id(t): i for i, t in enumerate(wave)}
    for left, right in zip(first, first[1:]):
        if key_of[id(left)] == key_of[id(right)]:
            assert original_rank[id(left)] < original_rank[id(right)]


def test_trace_key_keeps_stored_phase_ones_valid():
    assert ReorderStrategy().trace_key() == "reorder/k8/w0"
