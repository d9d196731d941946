"""Energy study driver tests."""

import pytest

from repro.experiments import energy_study
from repro.runtime.cache import CachedWorkloadCache
from repro.experiments.runner import run_experiment
from repro.workloads.params import WorkloadParams


@pytest.fixture(scope="module")
def cache():
    return CachedWorkloadCache(
        params=WorkloadParams().scaled(0.3),
        scene_names=["SHIP", "CRNVL"],
    )


def test_energy_study_runs(cache):
    result = energy_study.run(cache)
    assert result.total_energy["RB_8"] == pytest.approx(1.0)
    # SMS cuts energy (spill DRAM traffic removed, runtime shorter).
    assert result.total_energy["RB_8+SH_8+SK+RA"] < 1.0
    assert result.total_energy["RB_FULL"] <= result.total_energy["RB_8"]


def test_stack_share_drops_with_sms(cache):
    result = energy_study.run(cache)
    assert (
        result.stack_energy_share["RB_8+SH_8+SK+RA"]
        < result.stack_energy_share["RB_8"]
    )
    assert result.stack_energy_share["RB_FULL"] == pytest.approx(0.0)


def test_render(cache):
    text = energy_study.render(energy_study.run(cache))
    assert "Energy study" in text
    assert "RB_FULL" in text


def test_runner_exposes_energy(cache):
    text = run_experiment("energy", cache)
    assert "Energy study" in text
