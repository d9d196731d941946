"""Seeded red-gates for the SL6xx vector family.

The targets are the *real* vector backend files: ``plan.py`` (which
owns the plan cache SL602 guards) and ``unit.py`` (whose counter folds
SL601 keeps integral).  Each test copies them into a temporary tree,
seeds one violation, and lints with the real config.
"""

import shutil
from pathlib import Path

from repro.simlint import LintConfig, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

#: unit.py's counter-parity oracle lives one package up; it must ride
#: along so SL204's coverage check has its target in the project graph.
SOURCES = ("src/repro/gpu/vector/unit.py",
           "src/repro/gpu/vector/plan.py",
           "src/repro/gpu/counters.py")


def seeded_report(tmp_path, filename, mutate):
    for rel in SOURCES:
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, dest)
    target = tmp_path / "src" / "repro" / "gpu" / "vector" / filename
    source = target.read_text()
    mutated = mutate(source)
    assert mutated != source, "seed did not apply"
    target.write_text(mutated)
    return lint_paths([str(tmp_path / "src")], config=LintConfig())


def rules_of(report):
    return sorted({f.rule for f in report.findings})


def test_unmodified_vector_backend_is_clean(tmp_path):
    report = seeded_report(
        tmp_path, "unit.py", lambda s: s + "\n# control copy\n"
    )
    assert report.findings == [], rules_of(report)
    assert report.exit_code == 0


def test_seeded_float_counter_fold_fires_sl601(tmp_path):
    report = seeded_report(tmp_path, "unit.py", lambda s: s.replace(
        'counters.instructions += totals["instructions"]',
        'counters.instructions += totals["instructions"] / 2',
        1,
    ))
    assert report.exit_code == 1
    assert rules_of(report) == ["SL601"]


def test_seeded_unsanctioned_cache_write_fires_sl602(tmp_path):
    seed = (
        "\n\ndef _poke(trace, totals):\n"
        "    cache = trace._vector_cache\n"
        "    cache[\"totals\"] = totals\n"
    )
    report = seeded_report(tmp_path, "unit.py", lambda s: s + seed)
    assert report.exit_code == 1
    assert rules_of(report) == ["SL602"]


def test_seeded_unstable_argsort_fires_sl603(tmp_path):
    # The backend no longer imports numpy, so the seed brings its own.
    seed = (
        "\n\nimport numpy as np\n\n\n"
        "def _rank(keys):\n"
        "    return np.argsort(keys)\n"
    )
    report = seeded_report(tmp_path, "plan.py", lambda s: s + seed)
    assert report.exit_code == 1
    assert rules_of(report) == ["SL603"]
