"""Ablation study tests at reduced scale."""

import pytest

from repro.experiments import ablations
from repro.runtime.cache import CachedWorkloadCache
from repro.workloads.params import WorkloadParams


@pytest.fixture(scope="module")
def cache():
    return CachedWorkloadCache(
        params=WorkloadParams().scaled(0.3),
        scene_names=["SHIP", "CRNVL"],
    )


def test_borrow_limit_sweep(cache):
    result = ablations.borrow_limit_sweep(cache, limits=(0, 1, 4))
    assert set(result.means) == {"borrows=0", "borrows=1", "borrows=4"}
    # More borrowing never hurts (monotone within tolerance).
    assert result.means["borrows=4"] >= result.means["borrows=0"] - 0.01
    text = ablations.render_sweep(result, "borrow sweep")
    assert "borrows=4" in text


def test_flush_limit_sweep(cache):
    result = ablations.flush_limit_sweep(cache, limits=(0, 3))
    assert set(result.means) == {"flushes=0", "flushes=3"}
    for value in result.means.values():
        assert value > 0.9


def test_skew_scaling(cache):
    reductions = ablations.skew_scaling(cache, sizes=(4, 8))
    assert set(reductions) == {"SH_4", "SH_8"}
    for value in reductions.values():
        assert -1.0 <= value <= 1.0


def test_spill_policy_study(cache):
    means = ablations.spill_policy_study(cache)
    assert means["uncached"] == pytest.approx(1.0)
    # Cacheable spills can only help the baseline.
    assert means["l2"] >= means["uncached"] - 0.01
    assert means["l1"] >= means["l2"] - 0.01


def test_stackless_comparison(cache):
    result = ablations.stackless_comparison(cache, rays_per_scene=32)
    for scene, overhead in result.overhead.items():
        assert overhead >= 1.0  # restarts never reduce visits
    assert any(r > 0 for r in result.restarts_per_ray.values())
