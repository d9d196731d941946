"""Config tests: the default ``LintConfig`` is this repository's config.

``repro lint`` and the library API (``lint_source``/``lint_paths``
without a config) run with the same settings, so a hazard one of them
rejects the other rejects too.
"""

from repro.simlint import LintConfig, lint_paths, lint_source

PERF_COUNTER = "import time\nt0 = time.perf_counter()\n"


def test_default_timing_scope_covers_ablation():
    findings = lint_source(PERF_COUNTER, module="repro.ablation.engine",
                           config=LintConfig())
    assert [f.rule for f in findings] == ["SL101"]


def test_default_config_skips_rule_fixtures(tmp_path):
    fixtures = tmp_path / "tests" / "simlint" / "fixtures"
    fixtures.mkdir(parents=True)
    (fixtures / "sl402_bad.py").write_text('print("x")\n')
    report = lint_paths([str(tmp_path)], config=LintConfig())
    assert report.files == 0 and report.findings == []
