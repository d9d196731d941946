"""The head-to-head comparison engine (`repro compare --strategies`)."""

import pytest

from repro.errors import ConfigError
from repro.experiments import compare_strategies
from repro.runtime.cache import CachedWorkloadCache
from repro.runtime.cache import runtime_cache
from repro.workloads.params import WorkloadParams

TINY = WorkloadParams(width=6, height=6, spp=1, max_bounces=2,
                      complex_width=6, complex_height=6, complex_spp=1)
SCENES = ("WKND", "BUNNY")


def test_run_and_render_serial():
    cache = CachedWorkloadCache(params=TINY, scene_names=SCENES)
    comparison = compare_strategies.run(
        cache, strategies=("sms", "stackless", "reorder")
    )
    assert comparison.strategies == ["sms", "stackless", "reorder"]
    assert sorted(comparison.per_scene) == sorted(SCENES)
    for per_strategy in comparison.per_scene.values():
        assert set(per_strategy) == {"sms", "stackless", "reorder"}
        # Stackless freed the SH carve-out; sms kept it.
        assert per_strategy["stackless"].config.sh_stack_entries == 0
        assert per_strategy["sms"].config.sh_stack_entries > 0
        # Reorder replays the same architecture as sms over permuted
        # warps: identical per-scene ray population.
        assert (per_strategy["reorder"].ray_count
                == per_strategy["sms"].ray_count)

    report = compare_strategies.render(comparison)
    for scene in SCENES:
        assert f"[{scene}]" in report
    for name in ("sms", "stackless", "reorder"):
        assert name in report
    assert "aggregate over 2 scenes" in report
    assert "IPC geomean vs sms" in report


def test_run_through_the_runtime_hits_the_store(tmp_path):
    cache = runtime_cache(params=TINY, scene_names=("WKND",), jobs=1,
                          cache_dir=tmp_path)
    first = compare_strategies.run(cache, strategies=("sms", "stackless"))
    assert cache.metrics.simulated == 2
    assert cache.metrics.cache_hits == 0
    # Second sweep over the same cells: pure store hits.
    cache2 = runtime_cache(params=TINY, scene_names=("WKND",), jobs=1,
                           cache_dir=tmp_path)
    second = compare_strategies.run(cache2, strategies=("sms", "stackless"))
    assert cache2.metrics.cache_hits == 2
    assert cache2.metrics.simulated == 0
    for name in ("sms", "stackless"):
        assert (second.per_scene["WKND"][name].counters.as_dict()
                == first.per_scene["WKND"][name].counters.as_dict())


def test_unknown_strategy_fails_before_tracing():
    cache = CachedWorkloadCache(params=TINY, scene_names=("WKND",))
    with pytest.raises(ConfigError):
        compare_strategies.run(cache, strategies=("sms", "warp-sort"))


def test_empty_selection_falls_back_to_default():
    cache = CachedWorkloadCache(params=TINY, scene_names=("WKND",))
    comparison = compare_strategies.run(cache, strategies=())
    assert comparison.strategies == list(compare_strategies.DEFAULT_STRATEGIES)
