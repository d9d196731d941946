"""The one per-process phase-one memo: its bound, sharing and key."""

import importlib
from collections import OrderedDict

import pytest

from repro.core.presets import named_config
from repro.experiments import compare_strategies
from repro.runtime.cache import CachedWorkloadCache
from repro.runtime.job import SimulationJob
from repro.workloads.params import WorkloadParams

PARAMS = WorkloadParams().scaled(0.25)

job_module = importlib.import_module("repro.runtime.job")


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty memo, so each test sees its own phase-one builds."""
    monkeypatch.setattr(job_module, "_TRACE_MEMO", OrderedDict())


def test_trace_memo_evicts_at_capacity(monkeypatch):
    monkeypatch.setattr(job_module, "_TRACE_MEMO_CAPACITY", 1)
    config = named_config("RB_8")
    for scene in ("WKND", "SPRNG"):
        job_module.SimulationJob(
            scene=scene, config=config, width=6, height=6, spp=1,
            max_bounces=2,
        ).run()
    assert len(job_module._TRACE_MEMO) == 1


def test_traced_sweep_and_compare_share_one_phase_one(fresh_memo,
                                                      monkeypatch):
    # Counted inside build_bvh, so every module's reference to it counts.
    bvh_api = importlib.import_module("repro.bvh.api")
    real_build = bvh_api.build_binary_bvh
    built = []

    def counting_build(scene, *args, **kwargs):
        built.append(scene.name)
        return real_build(scene, *args, **kwargs)

    monkeypatch.setattr(bvh_api, "build_binary_bvh", counting_build)
    cache = CachedWorkloadCache(params=PARAMS, scene_names=["SHIP"])
    traces = cache.traced("SHIP")
    swept = cache.sweep([named_config("RB_8")])
    compared = compare_strategies.run(cache, strategies=["sms"])
    assert built == ["SHIP"]
    assert swept["SHIP"]["RB_8"].ray_count == len(traces)
    assert compared.per_scene["SHIP"]["sms"].ray_count == len(traces)


def test_bench_scale_change_is_never_served_stale(fresh_memo, monkeypatch):
    cache = CachedWorkloadCache(params=PARAMS, scene_names=["SHIP"])
    config = named_config("RB_8")
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
    halved = cache.simulate("SHIP", config)
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1.0")
    rescaled = cache.simulate("SHIP", config)
    monkeypatch.setattr(job_module, "_TRACE_MEMO", OrderedDict())
    fresh = SimulationJob.from_params("SHIP", config, params=PARAMS).run()
    assert rescaled == fresh
    assert rescaled != halved
