"""Engine tests: module mounting, suppressions, discovery, exit codes."""

import pytest

from repro.errors import ReproError
from repro.simlint import lint_paths, lint_source
from repro.simlint.config import LintConfig
from repro.simlint.engine import FileContext, module_name

PRINT = 'print("hello")\n'


# -- module resolution ----------------------------------------------------

def test_module_name_from_src_path():
    assert module_name("src/repro/gpu/rt_unit.py") == "repro.gpu.rt_unit"
    assert module_name("src/repro/__init__.py") == "repro"
    assert module_name("src/repro/stack/__init__.py") == "repro.stack"


def test_module_name_outside_package_is_none():
    assert module_name("tests/core/test_cli.py") is None
    assert module_name("tools/gen_api_docs.py") is None


def test_import_alias_resolution():
    ctx = FileContext("x.py", "import numpy as np\nr = np.random.default_rng()\n")
    call = ctx.tree.body[1].value
    assert ctx.resolve(call.func) == "numpy.random.default_rng"


def test_from_import_resolution():
    ctx = FileContext("x.py", "from time import time as now\nt = now()\n")
    call = ctx.tree.body[1].value
    assert ctx.resolve(call.func) == "time.time"


# -- suppressions ---------------------------------------------------------

def test_same_line_suppression():
    source = 'print("a")  # simlint: disable=SL402\n'
    assert lint_source(source, module="repro.gpu.x") == []


def test_comment_above_suppression_covers_next_code_line():
    source = (
        "# rendered banner is the contract here\n"
        "# simlint: disable=SL402\n"
        'print("a")\n'
        'print("b")\n'
    )
    findings = lint_source(source, module="repro.gpu.x")
    assert [f.line for f in findings] == [4]


def test_file_level_suppression():
    source = '# simlint: disable-file=SL402\nprint("a")\nprint("b")\n'
    assert lint_source(source, module="repro.gpu.x") == []


def test_suppression_is_rule_specific():
    source = 'print("a")  # simlint: disable=SL101\n'
    findings = lint_source(source, module="repro.gpu.x")
    assert [f.rule for f in findings] == ["SL402"]


def test_multiple_ids_in_one_directive():
    source = (
        "import time\n"
        "t = (time.time(), print(1))  # simlint: disable=SL101,SL402\n"
    )
    assert lint_source(source, module="repro.gpu.x") == []


# -- config knobs ---------------------------------------------------------

def test_print_allowed_modules_skip_sl402():
    config = LintConfig(print_allowed=("repro.cli",))
    assert lint_source(PRINT, module="repro.cli", config=config) == []


# -- discovery, reporting, exit codes -------------------------------------

def test_lint_paths_counts_suppressions(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "a.py").write_text('print("x")  # simlint: disable=SL402\n')
    report = lint_paths([str(tmp_path)])
    assert report.files == 1
    assert report.findings == []
    assert report.suppressed == 1
    assert report.exit_code == 0


def test_exclude_pattern_skips_tree(tmp_path):
    tree = tmp_path / "repro" / "fixtures"
    tree.mkdir(parents=True)
    (tree / "bad.py").write_text(PRINT)
    clean = lint_paths([str(tmp_path)], config=LintConfig(exclude=("fixtures",)))
    assert clean.files == 0 and clean.findings == []
    dirty = lint_paths([str(tmp_path)])
    assert [f.rule for f in dirty.findings] == ["SL402"]


def test_broken_file_reports_exit_code_2(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "broken.py").write_text("def oops(:\n")
    (tree / "fine.py").write_text("x = 1\n")
    report = lint_paths([str(tmp_path)])
    assert len(report.broken) == 1
    assert report.broken[0][0].endswith("broken.py")
    assert report.files == 1  # the parseable file still linted
    assert report.exit_code == 2


def test_missing_target_raises():
    with pytest.raises(ReproError, match="does not exist"):
        lint_paths(["no/such/tree"])


def test_findings_sorted_and_stable(tmp_path):
    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "b.py").write_text(PRINT)
    (tree / "a.py").write_text(PRINT * 2)
    report = lint_paths([str(tmp_path)])
    keys = [(f.path, f.line) for f in report.findings]
    assert keys == sorted(keys)
    assert report.exit_code == 1
