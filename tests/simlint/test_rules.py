"""Per-rule fixture harness.

Every registered rule has a ``slXXX_bad.py`` / ``slXXX_good.py`` pair in
``fixtures/``; the bad file must trip exactly that rule (a fixture that
co-fires another rule is a bad diagnostic), the good file must be fully
clean.  Fixtures are linted as *text* via :func:`lint_source` with an
explicit module mount so scope filters apply without real src paths —
they are never imported, and the fixtures directory is excluded from
``repro lint`` runs by ``[tool.simlint]``.
"""

from pathlib import Path

import pytest

from repro.simlint import RULES, all_rules, lint_source
from repro.simlint.config import LintConfig

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id → (module the fixture is mounted as, finding count in *_bad).
#: SL203 mounts outside ``counter-owners`` (repro.gpu owns counters);
#: everything else mounts in the timing-critical gpu package, the
#: strictest scope, so timing/repro/all-scoped rules all engage.
CASES = {
    "SL101": ("repro.gpu.fixture", 3),
    "SL102": ("repro.gpu.fixture", 3),
    "SL103": ("repro.gpu.fixture", 3),
    "SL104": ("repro.gpu.fixture", 3),
    # SL110 mounts outside the timing packages so its entropy sources
    # (time/id/set-order) exercise the *flow* engine without co-firing
    # the SL1xx call-site rules.
    "SL110": ("repro.runtime.fixture", 3),
    "SL201": ("repro.gpu.fixture", 3),
    "SL202": ("repro.gpu.fixture", 2),
    "SL203": ("repro.runtime.fixture", 2),
    "SL204": ("repro.gpu.fixture", 1),
    "SL301": ("repro.gpu.fixture", 2),
    "SL302": ("repro.gpu.fixture", 2),
    "SL401": ("repro.gpu.fixture", 2),
    "SL402": ("repro.gpu.fixture", 1),
    "SL601": ("repro.gpu.vector.fixture", 2),
    "SL602": ("repro.gpu.vector.fixture", 2),
    "SL603": ("repro.gpu.vector.fixture", 2),
    "SL604": ("repro.gpu.vector.fixture", 2),
}


@pytest.fixture(autouse=True)
def _run_beside_fixtures(monkeypatch):
    """Fixtures lint under ``path="fixtures/<name>"``, and SL204 resolves
    a fixture's oracle path against that path, so run from the directory
    that holds ``fixtures/``."""
    monkeypatch.chdir(FIXTURES.parent)


def lint_fixture(name: str, module: str):
    source = (FIXTURES / name).read_text()
    return lint_source(source, path=f"fixtures/{name}", module=module,
                       config=LintConfig())


def test_every_rule_has_a_fixture_pair():
    """The harness covers the registry — a new rule must bring fixtures."""
    assert set(CASES) == set(RULES)
    for rule_id in CASES:
        stem = rule_id.lower()
        assert (FIXTURES / f"{stem}_bad.py").exists()
        assert (FIXTURES / f"{stem}_good.py").exists()


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_fires_on_bad_fixture(rule_id):
    module, expected = CASES[rule_id]
    findings = lint_fixture(f"{rule_id.lower()}_bad.py", module)
    fired = [f for f in findings if f.rule == rule_id]
    assert len(fired) == expected, [f"{f.rule}:{f.line}" for f in findings]
    # A fixture that co-fires other rules is diagnosing the wrong thing.
    assert {f.rule for f in findings} == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_silent_on_good_fixture(rule_id):
    module, _ = CASES[rule_id]
    findings = lint_fixture(f"{rule_id.lower()}_good.py", module)
    assert findings == [], [f"{f.rule}:{f.line}:{f.message}" for f in findings]


def test_rule_catalog_is_documented():
    """Every rule carries the metadata the catalog and reporters rely on."""
    rules = all_rules()
    assert len(rules) >= 10
    for rule in rules:
        assert rule.id.startswith("SL") and rule.id[2:].isdigit()
        assert rule.title and rule.rationale
        assert rule.category in {
            "determinism", "bit-identity", "diagnostics", "hygiene",
            "vector",
        }
        assert rule.severity in {"error", "warning"}
        assert rule.scope in {"timing", "vector", "repro", "all"}


def test_scope_filtering():
    """Timing rules skip non-timing modules; repro rules skip tests."""
    timing_only = "import time\ntime.sleep(0.1)\n"
    assert any(
        f.rule == "SL101"
        for f in lint_source(timing_only, module="repro.gpu.x")
    )
    # sleep is a host-clock call: flagged only under the simulated clock.
    assert lint_source(timing_only, module="repro.runtime.x") == []
    # print() is a repro-wide rule but fine outside the package.
    assert any(
        f.rule == "SL402" for f in lint_source("print(1)\n", module="repro.viz")
    )
    assert lint_source("print(1)\n", module=None) == []
