"""Runtime integration: equivalence, persistence, and the rewired paths.

Covers the acceptance criteria: a parallel first run produces
``SimulationResult`` values identical to the serial path, and a repeated
campaign over 2 scenes x 3 configs is served entirely from the result
store (zero simulations on the second run).
"""

import pytest

from repro.analysis import Campaign
from repro.core.presets import named_config
from repro.runtime import (
    CachedWorkloadCache,
    ExecutionPolicy,
    ResultStore,
    runtime_cache,
)
from repro.workloads.params import WorkloadParams

PARAMS = WorkloadParams().scaled(0.25)
SCENES = ("SHIP", "CRNVL")
CONFIGS = ("RB_8", "RB_8+SH_8+SK+RA", "RB_FULL")


def make_campaign(tmp_path, **overrides):
    options = dict(
        configs=CONFIGS,
        scenes=SCENES,
        params=PARAMS,
        cache_dir=tmp_path / "store",
    )
    options.update(overrides)
    return Campaign(**options)


def test_parallel_run_identical_to_serial(tmp_path):
    serial = make_campaign(tmp_path, jobs=1, use_cache=False).run()
    parallel = make_campaign(tmp_path, jobs=4, use_cache=False).run()
    assert len(serial.results) == len(SCENES) * len(CONFIGS)
    for left, right in zip(serial.results, parallel.results):
        assert left == right  # full dataclass equality, bit-identical
        assert left.counters == right.counters
        assert left.depth_stats == right.depth_stats
    assert serial.normalized_means() == parallel.normalized_means()


def test_second_campaign_run_is_fully_cached(tmp_path):
    first = make_campaign(tmp_path, jobs=2).run()
    assert first.metrics.simulated == len(SCENES) * len(CONFIGS)
    second = make_campaign(tmp_path, jobs=2).run()
    # >= 90% served from the store — in fact all of it, zero simulations.
    assert second.metrics.simulated == 0
    assert second.metrics.cache_hits == len(SCENES) * len(CONFIGS)
    assert second.metrics.cache_hit_rate == 1.0
    assert [r.counters for r in second.results] == [
        r.counters for r in first.results
    ]


def test_config_change_invalidates(tmp_path):
    make_campaign(tmp_path, jobs=1).run()
    changed = make_campaign(
        tmp_path, jobs=1, configs=("RB_8", "RB_4", "RB_FULL")
    ).run()
    # RB_8 and RB_FULL hit, the new RB_4 column simulates.
    assert changed.metrics.cache_hits == 2 * len(SCENES)
    assert changed.metrics.simulated == len(SCENES)


def test_params_change_invalidates(tmp_path):
    make_campaign(tmp_path, jobs=1).run()
    rerun = make_campaign(
        tmp_path, jobs=1, params=WorkloadParams().scaled(0.3)
    ).run()
    assert rerun.metrics.cache_hits == 0


def test_salt_change_invalidates(tmp_path, monkeypatch):
    make_campaign(tmp_path, jobs=1).run()
    monkeypatch.setenv("REPRO_CACHE_SALT", "new-code-version")
    rerun = make_campaign(tmp_path, jobs=1).run()
    assert rerun.metrics.cache_hits == 0
    assert rerun.metrics.simulated == len(SCENES) * len(CONFIGS)


def test_campaign_runs_on_a_given_cache(tmp_path):
    cache = CachedWorkloadCache(params=PARAMS, scene_names=["SHIP"],
                                store=ResultStore(tmp_path / "store"))
    result = Campaign(configs=("RB_8",), scenes=("CRNVL",)).run(cache)
    assert result.metrics is cache.metrics
    assert result.metrics.simulated == 1
    assert result.results[0].scene_name == "SHIP"  # the cache's scenes
    assert len(cache.store) == 1


def test_cached_sweep_matches_plain_sweep(tmp_path):
    configs = [named_config(name) for name in CONFIGS]
    plain = CachedWorkloadCache(params=PARAMS, scene_names=list(SCENES))
    cached = CachedWorkloadCache(
        params=PARAMS,
        scene_names=list(SCENES),
        store=ResultStore(tmp_path / "store"),
        policy=ExecutionPolicy(workers=2),
    )
    expected = plain.sweep(configs)
    actual = cached.sweep(configs)
    assert actual == expected
    # And again, now fully from the store.
    again = cached.sweep(configs)
    assert again == expected
    assert cached.metrics.cache_hits >= len(SCENES) * len(CONFIGS)


def test_cached_simulate_hits_store(tmp_path):
    cached = runtime_cache(
        params=PARAMS, scene_names=["SHIP"], jobs=1,
        cache_dir=tmp_path / "store",
    )
    config = named_config("RB_8")
    first = cached.simulate("SHIP", config)
    assert cached.metrics.simulated == 1
    second = cached.simulate("SHIP", config)
    assert cached.metrics.cache_hits == 1
    assert first == second


def test_run_experiment_accepts_runtime_cache(tmp_path):
    from repro.experiments.runner import run_experiment

    cache = runtime_cache(
        params=PARAMS, scene_names=list(SCENES), jobs=2,
        cache_dir=tmp_path / "store",
    )
    report = run_experiment("fig13", cache)
    assert "SHIP" in report
    assert cache.metrics.simulated > 0
    # Regenerating is free now.
    cache2 = runtime_cache(
        params=PARAMS, scene_names=list(SCENES), jobs=2,
        cache_dir=tmp_path / "store",
    )
    report2 = run_experiment("fig13", cache2)
    assert report2 == report
    assert cache2.metrics.simulated == 0


def test_cli_experiment_runtime_flags(tmp_path, capsys):
    from repro.cli import main

    code = main([
        "experiment", "fig14", "--scale", "0.25", "--scenes", "SHIP",
        "--jobs", "1", "--cache-dir", str(tmp_path / "store"),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "Fig. 14" in captured.out
    assert "[repro]" in captured.err  # metrics summary on stderr

    # --no-cache still works and recomputes.
    assert main([
        "experiment", "fig14", "--scale", "0.25", "--scenes", "SHIP",
        "--jobs", "1", "--no-cache",
    ]) == 0


def test_cli_cache_command(tmp_path, capsys):
    from repro.cli import main

    store_dir = tmp_path / "store"
    make_campaign(tmp_path, jobs=1, cache_dir=store_dir).run()
    assert main(["cache", "--cache-dir", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries  : 6" in out
    # One phase-one artifact per scene, counted apart from the results.
    assert "phase one: 2 artifacts" in out
    assert len(ResultStore(store_dir)) == 6
    assert main(["cache", "--cache-dir", str(store_dir), "--clear"]) == 0
    out = capsys.readouterr().out
    assert "cleared 6 stored results and 2 phase-one artifacts" in out
    assert ResultStore(store_dir).trace_artifacts() == []
    assert main(["cache", "--cache-dir", str(store_dir)]) == 0
    assert "phase one: 0 artifacts, 0.0 MB" in capsys.readouterr().out


def test_progress_line_renders(tmp_path, capsys):
    campaign = make_campaign(tmp_path, jobs=1, progress=True,
                             scenes=("SHIP",), configs=("RB_8",))
    campaign.run()
    err = capsys.readouterr().err
    assert "[repro]" in err
    assert "1/1" in err
