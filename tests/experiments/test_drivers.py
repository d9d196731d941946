"""Experiment driver tests at reduced scale.

Each driver must run end to end and render the rows/series the paper
reports.  Scale is cut aggressively (2 scenes, tiny resolution); the
full-suite runs live in benchmarks/.
"""

from dataclasses import replace

import pytest

from repro.ablation import named_space, run_space
from repro.errors import ExperimentError
from repro.experiments import runner
from repro.runtime.cache import CachedWorkloadCache
from repro.experiments import (
    fig4_stack_depths,
    fig5_depth_distribution,
    fig6_stack_l1d,
    fig8_sh_configs,
    fig10_thread_depths,
    fig13_sms_ipc,
    fig14_skewed,
    fig15_rb_sizes,
    table1,
    table2,
)
from repro.workloads.params import WorkloadParams


@pytest.fixture(scope="module")
def cache():
    return CachedWorkloadCache(
        params=WorkloadParams().scaled(0.3),
        scene_names=["SHIP", "CRNVL"],
    )


def test_table1_renders():
    text = table1.render(table1.run())
    assert "Table I" in text
    assert "GTO" in text


def test_table2_renders(cache):
    result = table2.run(cache)
    text = table2.render(result)
    assert "SHIP" in text and "CRNVL" in text
    assert result.stats["SHIP"].triangle_count > 0


def test_fig4(cache):
    result = fig4_stack_depths.run(cache)
    assert set(result.per_scene) == {"SHIP", "CRNVL"}
    assert result.overall.max_depth >= max(
        s.max_depth for s in result.per_scene.values()
    ) - 1
    text = fig4_stack_depths.render(result)
    assert "Fig. 4" in text and "ALL" in text


def test_fig5(cache):
    result = fig5_depth_distribution.run(cache)
    assert sum(result.fractions) == pytest.approx(1.0)
    assert "Fig. 5" in fig5_depth_distribution.render(result)


def test_fig6(cache):
    result = fig6_stack_l1d.run(cache)
    assert result.stack_sweep["RB_8"] == pytest.approx(1.0)
    assert result.l1d_sweep["x1.0"] == pytest.approx(1.0)
    # Bigger stacks and bigger L1D never hurt.
    assert result.stack_sweep["RB_32"] >= result.stack_sweep["RB_4"]
    assert result.l1d_sweep["x4.0"] >= result.l1d_sweep["x0.25"]
    assert "Fig. 6a" in fig6_stack_l1d.render(result)


def test_fig8(cache):
    result = fig8_sh_configs.run(cache)
    assert result.means["RB_8"] == pytest.approx(1.0)
    assert result.means["RB_8+SH_16"] >= result.means["RB_8+SH_4"] - 0.02
    assert result.shared_memory_bytes["RB_8+SH_8"] == 8 * 1024
    assert "Fig. 8" in fig8_sh_configs.render(result)


def test_fig10(cache):
    result = fig10_thread_depths.run(cache, scene="SHIP", warps=1)
    assert result.warp_series
    assert 0 < result.finish_spread <= 1.0
    text = fig10_thread_depths.render(result)
    assert "warp 0" in text


def test_fig13(cache):
    result = fig13_sms_ipc.run(cache)
    assert result.means["RB_8"] == pytest.approx(1.0)
    assert result.means["RB_8+SH_8+SK+RA"] >= result.means["RB_8+SH_8"] - 0.02
    assert "MEAN" in fig13_sms_ipc.render(result)


def test_fig14(cache):
    result = fig14_skewed.run(cache)
    assert set(result.delay_no_skew) == {"SHIP", "CRNVL"}
    assert "Fig. 14" in fig14_skewed.render(result)


@pytest.mark.parametrize(
    "experiment, cells_per_scene",
    [
        (fig14_skewed.run, 2),
        (lambda cache: run_space(
            replace(named_space("skew"), scenes=tuple(cache.names)),
            params=cache.params, cache=cache,
        ), 6),
    ],
    ids=["fig14", "skew_scaling"],
)
def test_experiment_is_one_run_jobs_call(cache, monkeypatch, experiment,
                                         cells_per_scene):
    """Every cell goes to the runtime in one batch, so ``--jobs`` can
    spread it over the pool."""
    batches = []
    run_jobs = CachedWorkloadCache.run_jobs

    def counting(self, jobs):
        batches.append(len(jobs))
        return run_jobs(self, jobs)

    monkeypatch.setattr(CachedWorkloadCache, "run_jobs", counting)
    experiment(cache)
    assert batches == [cells_per_scene * len(cache.names)]


def test_fig15(cache):
    result = fig15_rb_sizes.run(cache)
    assert result.ipc_means["RB_8"] == pytest.approx(1.0)
    assert result.offchip_means["RB_2"] > result.offchip_means["RB_16"]
    assert result.ipc_means["RB_2+SH_8+SK+RA"] > result.ipc_means["RB_2"]
    assert "Fig. 15" in fig15_rb_sizes.render(result)


def test_runner_unknown_raises():
    with pytest.raises(ExperimentError):
        runner.run_experiment("fig99")


def test_runner_runs_named(cache):
    text = runner.run_experiment("fig4", cache)
    assert "Fig. 4" in text


def test_runner_registry_covers_all_figures():
    assert set(runner.EXPERIMENTS) == {
        "table1", "table2", "fig4", "fig5", "fig6", "fig8",
        "fig10", "fig13", "fig14", "fig15",
    }
