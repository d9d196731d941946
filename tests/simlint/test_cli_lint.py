"""CLI tests for ``repro lint`` (driving main() directly)."""

import json
import shutil
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
    code = lint(str(make_dirty_tree(tmp_path)))
    assert code == 1
    out = capsys.readouterr().out
    assert ": SL402 " in out and "1 finding(s)" in out


def test_clean_tree_exits_0(tmp_path, capsys):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "mod.py").write_text("x = 1\n")
    assert lint(str(tmp_path)) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_json_format_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = lint(str(make_dirty_tree(tmp_path)),
                "--format", "json", "--out", str(out_path))
    assert code == 1
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(out_path.read_text())
    assert stdout_payload == file_payload
    assert file_payload["exit_code"] == 1
    assert file_payload["findings"][0]["rule"] == "SL402"


def test_broken_file_exits_2(tmp_path, capsys):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "broken.py").write_text("def oops(:\n")
    assert lint(str(tmp_path)) == 2
    assert "cannot parse" in capsys.readouterr().out


def test_missing_target_exits_2(capsys):
    assert lint("no/such/tree") == 2
    assert "does not exist" in capsys.readouterr().err


def test_list_rules_includes_the_v2_families(capsys):
    assert lint("--list-rules") == 0
    out = capsys.readouterr().out
    for rule_id in ("SL110", "SL601", "SL602", "SL603", "SL604"):
        assert rule_id in out
    assert "SL5" not in out


def test_lint_writes_nothing_beside_the_report(tmp_path, capsys,
                                              monkeypatch):
    """A lint run leaves no state behind, even in a directory that holds
    the repository's pyproject.toml: only the --out report appears."""
    make_dirty_tree(tmp_path)
    shutil.copyfile(REPO_ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.rglob("*"))
    assert lint("repro", "--format", "json", "--out", "report.json") == 1
    capsys.readouterr()
    assert set(tmp_path.rglob("*")) - before == {tmp_path / "report.json"}
