"""CLI happy paths for ``repro ablate``."""

import json

from repro.cli import main

#: Tiny but real: 2 design points x 1 scene at 1/16 resolution.
SPACE_DOC = {
    "name": "cli-test",
    "fixed": {"rb_stack_entries": 8},
    "ranges": {"sh_stack_entries": [0, 8]},
    "scenes": ["WKND"],
}


def write_space(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(SPACE_DOC))
    return path


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ablate_run(tmp_path, capsys, *extra):
    space = write_space(tmp_path)
    argv = [
        "ablate", "run", "--space", str(space), "--scale", "0.25",
        "--jobs", "1", "--no-cache", "--out", str(tmp_path / "run"),
    ]
    argv.extend(extra)
    return run_cli(argv, capsys)


def test_run_writes_report_and_prints_tables(tmp_path, capsys):
    code, out, err = ablate_run(tmp_path, capsys)
    assert code == 0
    assert "[sweep: space 'cli-test'" in out
    assert "[mechanism importance" in out
    assert "[Pareto frontier" in out
    assert "report written to" in err
    payload = json.loads((tmp_path / "run" / "report.json").read_text())
    assert payload["space"]["name"] == "cli-test"
    assert len(payload["runs"]) == 2


def test_run_json_format_is_the_canonical_payload(tmp_path, capsys):
    code, out, err = ablate_run(tmp_path, capsys, "--format", "json")
    assert code == 0
    printed = json.loads(out)
    on_disk = json.loads((tmp_path / "run" / "report.json").read_text())
    assert printed == on_disk


def test_report_rerenders_without_resimulating(tmp_path, capsys):
    ablate_run(tmp_path, capsys)
    code, out, err = run_cli(
        ["ablate", "report", str(tmp_path / "run")], capsys
    )
    assert code == 0
    assert "[sweep: space 'cli-test'" in out
    code, json_out, _ = run_cli(
        ["ablate", "report", str(tmp_path / "run"), "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(json_out) == json.loads(
        (tmp_path / "run" / "report.json").read_text()
    )


def test_pareto_subcommand(tmp_path, capsys):
    ablate_run(tmp_path, capsys)
    code, out, err = run_cli(
        ["ablate", "pareto", str(tmp_path / "run")], capsys
    )
    assert code == 0
    assert "[Pareto frontier" in out
    code, json_out, _ = run_cli(
        ["ablate", "pareto", str(tmp_path / "run"), "--format", "json"],
        capsys,
    )
    assert code == 0
    frontier = json.loads(json_out)
    assert isinstance(frontier, list) and frontier
    assert {"run_id", "label", "sram_bytes", "speedup"} <= set(frontier[0])


def test_list_spaces(capsys):
    code, out, err = run_cli(["ablate", "run", "--list-spaces"], capsys)
    assert code == 0
    for name in ("mechanisms", "fig8", "fig15", "bounds", "sram_pareto"):
        assert name in out
