"""Meta-tests: the repository passes its own lint, and the gate is live.

These are the two properties the CI job depends on: ``repro lint src/``
(and ``tests/``) is clean on the committed tree, and introducing a
contract violation — the acceptance-criteria probe is ``time.time()``
inside ``repro/gpu`` — flips the exit code to 1.
"""

import json
import shutil
from pathlib import Path

from repro.cli import main
from repro.simlint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def repo_report(*trees):
    return lint_paths([str(REPO_ROOT / t) for t in trees])


def test_repro_lint_src_is_clean():
    report = repo_report("src")
    assert report.files > 50
    assert report.findings == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in report.findings
    ]
    assert report.exit_code == 0


def test_repro_lint_tests_is_clean():
    report = repo_report("tests")
    assert report.findings == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in report.findings
    ]
    assert report.exit_code == 0


def test_repro_lint_tools_is_clean():
    report = repo_report("tools")
    assert report.files == len(list((REPO_ROOT / "tools").rglob("*.py")))
    assert report.findings == [], [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in report.findings
    ]
    assert report.exit_code == 0


def test_store_holds_the_only_wallclock_suppressions_in_src():
    """The two sanctioned time.time() reads (result/failure metadata in
    repro.runtime.store) must stay the only SL101 suppressions in src/."""
    sanctioned = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        if "simlint" in path.parts:
            # The linter's own docs quote the directive as an example.
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "simlint: disable" in line and "SL101" in line:
                sanctioned.append((path.relative_to(REPO_ROOT).as_posix(),
                                   lineno))
    assert [entry[0] for entry in sanctioned] == [
        "src/repro/runtime/store.py",
        "src/repro/runtime/store.py",
    ], sanctioned


def test_tool_suppressions_are_pinned():
    """tools/ carries exactly the documented suppressions: calibrate's
    operator-facing stdout/elapsed-time pair (file-level) and the api-doc
    generator's status line.  A new suppression must update this pin."""
    suppressions = []
    for path in sorted((REPO_ROOT / "tools").rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "simlint: disable" in line:
                suppressions.append(
                    (path.relative_to(REPO_ROOT).as_posix(),
                     line.split("=", 1)[1].strip())
                )
    assert suppressions == [
        ("tools/calibrate.py", "SL402"),
        ("tools/calibrate.py", "SL101"),
        ("tools/gen_api_docs.py", "SL402"),
    ], suppressions


def test_seeded_violation_turns_the_gate_red(tmp_path, capsys):
    """Copy a timing-critical module, seed a wall-clock read, lint it
    through the real CLI: exit code must be 1."""
    tree = tmp_path / "src" / "repro" / "gpu"
    tree.mkdir(parents=True)
    target = tree / "rt_unit.py"
    shutil.copyfile(REPO_ROOT / "src" / "repro" / "gpu" / "rt_unit.py",
                    target)
    source = target.read_text()
    needle = "warp, slot = self._pick_warp(resident, greedy_warp_id)"
    assert needle in source
    target.write_text(source.replace(
        needle, "import time; _t0 = time.time()\n            " + needle, 1
    ))
    code = main(["lint", str(tmp_path / "src"), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 1
    assert any(
        f["rule"] == "SL101" and f["path"].endswith("rt_unit.py")
        for f in payload["findings"]
    )
