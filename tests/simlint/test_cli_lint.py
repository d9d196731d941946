"""CLI tests for ``repro lint`` (driving main() directly)."""

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_dirty_tree(tmp_path):
    """A lintable tree with exactly one SL402 violation."""
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "mod.py").write_text('print("x")\n')
    return tmp_path


def lint(*argv):
    return main(["lint", *argv])


def test_list_rules_prints_catalog(capsys):
    assert lint("--list-rules") == 0
    out = capsys.readouterr().out
    for rule_id in ("SL101", "SL102", "SL103", "SL104", "SL201", "SL202",
                    "SL203", "SL204", "SL301", "SL302", "SL401", "SL402"):
        assert rule_id in out


def test_violation_exits_1_text(tmp_path, capsys):
    code = lint(str(make_dirty_tree(tmp_path)), "--no-baseline")
    assert code == 1
    out = capsys.readouterr().out
    assert "SL402 error:" in out and "1 error(s)" in out


def test_clean_tree_exits_0(tmp_path, capsys):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "mod.py").write_text("x = 1\n")
    assert lint(str(tmp_path), "--no-baseline") == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_json_format_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = lint(str(make_dirty_tree(tmp_path)), "--no-baseline",
                "--format", "json", "--out", str(out_path))
    assert code == 1
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(out_path.read_text())
    assert stdout_payload == file_payload
    assert file_payload["exit_code"] == 1
    assert file_payload["findings"][0]["rule"] == "SL402"


def test_write_baseline_then_clean(tmp_path, capsys):
    tree = make_dirty_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert lint(str(tree), "--baseline", str(baseline),
                "--write-baseline") == 0
    assert "baselined 1 finding(s)" in capsys.readouterr().out
    # The grandfathered finding no longer gates...
    assert lint(str(tree), "--baseline", str(baseline)) == 0
    capsys.readouterr()
    # ...but a fresh violation alongside it still does.
    (tree / "repro" / "new.py").write_text('print("y")\n')
    assert lint(str(tree), "--baseline", str(baseline)) == 1
    out = capsys.readouterr().out
    assert "new.py" in out and "mod.py" not in out


def test_show_baselined_flag(tmp_path, capsys):
    tree = make_dirty_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    lint(str(tree), "--baseline", str(baseline), "--write-baseline")
    capsys.readouterr()
    assert lint(str(tree), "--baseline", str(baseline),
                "--show-baselined") == 0
    assert "[baselined]" in capsys.readouterr().out


def test_broken_file_exits_2(tmp_path, capsys):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "broken.py").write_text("def oops(:\n")
    assert lint(str(tmp_path), "--no-baseline") == 2
    assert "cannot parse" in capsys.readouterr().out


def test_missing_target_exits_2(capsys):
    assert lint("no/such/tree", "--no-baseline") == 2
    assert "does not exist" in capsys.readouterr().err


def test_list_rules_includes_the_v2_families(capsys):
    assert lint("--list-rules") == 0
    out = capsys.readouterr().out
    for rule_id in ("SL110", "SL601", "SL602", "SL603", "SL604"):
        assert rule_id in out
    assert "SL5" not in out


def test_sarif_format(tmp_path, capsys):
    code = lint(str(make_dirty_tree(tmp_path)), "--no-baseline",
                "--format", "sarif")
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.simlint"
    assert [r["ruleId"] for r in run["results"]] == ["SL402"]


def test_cache_flag_makes_the_second_run_parse_nothing(tmp_path, capsys):
    tree = make_dirty_tree(tmp_path)
    cache = tmp_path / "lint-cache.json"
    assert lint(str(tree), "--no-baseline", "--cache", str(cache)) == 1
    capsys.readouterr()
    assert lint(str(tree), "--no-baseline", "--cache", str(cache)) == 1
    out = capsys.readouterr().out
    assert "0 parsed" in out and "cache hits" in out


def test_changed_falls_back_to_full_scan_outside_git(
    tmp_path, capsys, monkeypatch
):
    make_dirty_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert lint("repro", "--no-baseline", "--changed") == 1
    captured = capsys.readouterr()
    assert "not a git checkout" in captured.err
    assert "1 error(s)" in captured.out


def test_changed_scopes_the_run_to_dirty_files(
    tmp_path, capsys, monkeypatch
):
    import subprocess

    tree = make_dirty_tree(tmp_path)
    (tmp_path / "repro" / "clean.py").write_text("x = 1\n")
    subprocess.run(("git", "init", "--quiet"), cwd=tmp_path, check=True)
    subprocess.run(("git", "add", "-A"), cwd=tmp_path, check=True)
    subprocess.run(
        ("git", "-c", "user.email=ci@example.invalid", "-c", "user.name=ci",
         "commit", "--quiet", "-m", "seed"),
        cwd=tmp_path, check=True,
    )
    (tmp_path / "repro" / "mod.py").write_text('print("still dirty")\n')
    monkeypatch.chdir(tmp_path)
    assert lint("repro", "--no-baseline", "--changed") == 1
    out = capsys.readouterr().out
    assert "1 file(s)" in out and "1 error(s)" in out


def test_config_flag_applies_repo_config(tmp_path, capsys):
    """--config pointing at the repo pyproject excludes rule fixtures."""
    tree = tmp_path / "repro" / "tests" / "simlint" / "fixtures"
    tree.mkdir(parents=True)
    (tree / "sl_bad.py").write_text('print("x")\n')
    config = str(REPO_ROOT / "pyproject.toml")
    assert lint(str(tmp_path), "--config", config, "--no-baseline") == 0
    assert "0 file(s)" in capsys.readouterr().out
