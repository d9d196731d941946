"""CLI tests (driving main() directly, asserting on captured stdout)."""

import pytest

from repro.cli import build_parser, main


def test_simulate_runs(capsys):
    code = main([
        "simulate", "--scene", "SHIP", "--config", "RB_8",
        "--width", "8", "--height", "8", "--bounces", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "RB_8" in out


def test_simulate_sms_reports_realloc(capsys):
    main([
        "simulate", "--scene", "SHIP", "--config", "RB_2+SH_2+SK+RA",
        "--width", "8", "--height", "8", "--bounces", "1",
    ])
    out = capsys.readouterr().out
    assert "shared" in out


def test_compare_runs(capsys):
    code = main([
        "compare", "--scene", "SHIP", "--configs", "RB_8,RB_FULL",
        "--width", "8", "--height", "8", "--bounces", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "RB_FULL" in out
    assert "vs RB_8" in out


def test_compare_resolves_through_the_store(tmp_path, capsys):
    """Each compare cell is a job: a repeat run is all store hits."""
    argv = [
        "compare", "--scene", "SHIP", "--configs", "RB_8,RB_FULL",
        "--width", "8", "--height", "8", "--bounces", "1",
        "--jobs", "1", "--cache-dir", str(tmp_path / "store"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv) == 0
    second = capsys.readouterr()
    assert second.out == first.out
    assert "2 cached, 0 simulated" in second.err


def test_experiment_table1(capsys):
    assert main(["experiment", "table1"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_experiment_fig4_subset(capsys):
    code = main([
        "experiment", "fig4", "--scale", "0.25", "--scenes", "SHIP,REF",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Fig. 4" in out
    assert "SHIP" in out


def test_experiment_unknown_errors(capsys):
    assert main(["experiment", "fig99"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_config_errors(capsys):
    code = main([
        "simulate", "--scene", "SHIP", "--config", "BOGUS",
        "--width", "4", "--height", "4",
    ])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--spp", "0"],
    ["simulate", "--spp", "-2"],
    ["simulate", "--bounces", "-1"],
    ["compare", "--configs", " , "],
], ids=["spp-0", "spp-negative", "bounces-negative", "no-config-label"])
def test_empty_workload_is_an_error(argv, capsys):
    """A run with no samples or no configuration is a usage error, not an
    empty result or a crash."""
    code = main(argv + ["--scene", "FOX", "--width", "8", "--height", "8"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["experiment", "fig13", "--scale", "0"],
    ["experiment", "fig13", "--scale", "-1"],
    ["experiment", "fig13", "--scale", "nan"],
    ["experiment", "fig13", "--scenes", " , "],
    ["ablate", "run", "--scenes", " , "],
    ["compare", "--strategies", "sms", "--suite-scenes", " , "],
], ids=["scale-0", "scale-negative", "scale-nan", "experiment-no-scene",
        "ablate-no-scene", "compare-no-scene"])
def test_degenerate_sweep_is_an_error(argv, capsys):
    """A sweep with no resolution or no scene is a usage error, not a
    silent run at the smallest size or over the whole suite."""
    assert main(argv + ["--jobs", "1", "--no-cache"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_overhead(capsys):
    assert main(["overhead"]) == 0
    assert "272" in capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
