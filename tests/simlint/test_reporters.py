"""Reporter tests: the JSON contract CI uploads, and the text form."""

import json

from repro.simlint import lint_paths, render_json, render_text
from repro.simlint.reporters import REPORT_SCHEMA_VERSION, summary_line


def report_with_violation(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir(exist_ok=True)
    (tree / "mod.py").write_text('print("x")\n')
    return lint_paths([str(tmp_path)])


def test_json_schema_contract(tmp_path):
    payload = json.loads(render_json(report_with_violation(tmp_path)))
    assert payload["schema"] == REPORT_SCHEMA_VERSION
    assert payload["tool"] == "repro.simlint"
    assert payload["exit_code"] == 1
    summary = payload["summary"]
    assert set(summary) == {"files", "findings", "suppressed", "broken"}
    assert summary["files"] == 1 and summary["findings"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message", "text"}
    assert finding["rule"] == "SL402"
    assert payload["broken"] == []


def test_json_reports_broken_files(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "broken.py").write_text("def oops(:\n")
    payload = json.loads(render_json(lint_paths([str(tmp_path)])))
    assert payload["exit_code"] == 2
    assert payload["summary"]["broken"] == 1
    assert payload["broken"][0]["path"].endswith("broken.py")


def test_text_rendering(tmp_path):
    report = report_with_violation(tmp_path)
    text = render_text(report)
    assert ": SL402 " in text
    assert "mod.py:1:1" in text
    assert summary_line(report) in text
    assert "1 finding(s)" in summary_line(report)
