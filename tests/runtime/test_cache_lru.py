"""LRU bounds on the in-memory caches: traced scenes and the trace memo."""

import importlib

from repro.core.presets import named_config
from repro.experiments.common import WorkloadCache
from repro.runtime.cache import runtime_cache
from repro.workloads.params import WorkloadParams

PARAMS = WorkloadParams().scaled(0.25)
SCENES = ["WKND", "SPRNG", "FOX", "LANDS"]


def test_workload_cache_unbounded_by_default():
    cache = WorkloadCache(scene_names=SCENES, params=PARAMS)
    for name in SCENES:
        cache.traced(name)
    assert cache.evictions == 0
    assert len(cache._cache) == len(SCENES)


def test_workload_cache_lru_evicts_oldest():
    cache = WorkloadCache(scene_names=SCENES, params=PARAMS, max_traced=2)
    for name in SCENES[:3]:
        cache.traced(name)
    assert cache.evictions == 1
    assert list(cache._cache) == ["SPRNG", "FOX"]
    # A hit refreshes recency: SPRNG survives the next insertion.
    cache.traced("SPRNG")
    cache.traced("LANDS")
    assert list(cache._cache) == ["SPRNG", "LANDS"]
    assert cache.evictions == 2
    # Evicted scenes re-trace transparently.
    assert cache.traced("WKND") is not None
    assert cache.evictions == 3


def test_runtime_cache_exposes_evictions_in_metrics(tmp_path):
    cache = runtime_cache(
        params=PARAMS, scene_names=SCENES[:3], jobs=1,
        use_cache=False, max_traced=1,
    )
    for name in SCENES[:3]:
        cache.traced(name)
    assert cache.evictions == 2
    assert cache.metrics.evictions == 2
    assert "evictions" in cache.metrics.summary()


def test_trace_memo_evicts_at_capacity(monkeypatch):
    job_module = importlib.import_module("repro.runtime.job")
    monkeypatch.setattr(job_module, "_TRACE_MEMO_CAPACITY", 1)
    config = named_config("RB_8")
    for scene in ("WKND", "SPRNG"):
        job_module.SimulationJob(
            scene=scene, config=config, width=6, height=6, spp=1,
            max_bounces=2,
        ).run()
    assert len(job_module._TRACE_MEMO) == 1
