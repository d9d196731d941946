"""Ablation study tests at reduced scale."""

from dataclasses import replace

import pytest

from repro.ablation import named_space, run_space
from repro.experiments import ablations, fig14_skewed
from repro.runtime.cache import CachedWorkloadCache
from repro.workloads.params import WorkloadParams


@pytest.fixture(scope="module")
def cache():
    return CachedWorkloadCache(
        params=WorkloadParams().scaled(0.3),
        scene_names=["SHIP", "CRNVL"],
    )


def test_skew_scaling(cache):
    """The skew space's SH_8 pair is Fig. 14's: same summed-delay cut."""
    report = run_space(
        replace(named_space("skew"), scenes=tuple(cache.names)),
        params=cache.params, cache=cache,
    )
    delays = {
        (entry["knobs"]["sh_stack_entries"],
         entry["knobs"]["skewed_bank_access"]): {
            scene: cell["bank_conflict_delay_cycles"]
            for scene, cell in entry["per_scene"].items()
        }
        for entry in report.runs.values()
    }
    cuts = {
        size: fig14_skewed.Fig14Result(
            delay_no_skew=delays[size, False], delay_skew=delays[size, True]
        ).reduction
        for size in (4, 8, 16)
    }
    for value in cuts.values():
        assert -1.0 <= value <= 1.0
    assert cuts[8] == fig14_skewed.run(cache).reduction


def test_stackless_comparison(cache):
    result = ablations.stackless_comparison(cache, rays_per_scene=32)
    for scene, overhead in result.overhead.items():
        assert overhead >= 1.0  # restarts never reduce visits
    assert any(r > 0 for r in result.restarts_per_ray.values())
