"""Seeded red-gate for SL110 taint flow through the real config.

The test copies the *real* job module into a scratch tree, seeds a
content-key helper derived from ``id()`` (or a wall-clock field in
``phase_key``'s digest) into it, and lints through the real config: the
gate must flip to exit code 1 with SL110.  The unmodified copy linting
clean is the control.
"""

import shutil
from pathlib import Path

from repro.simlint import LintConfig, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def seeded_report(tmp_path, mutate):
    tree = tmp_path / "src" / "repro" / "runtime"
    tree.mkdir(parents=True)
    target = tree / "job.py"
    shutil.copyfile(REPO_ROOT / "src" / "repro" / "runtime" / "job.py", target)
    source = target.read_text()
    mutated = mutate(source)
    assert mutated != source, "seed did not apply"
    target.write_text(mutated)
    return lint_paths([str(tmp_path / "src")], config=LintConfig())


def rules_of(report):
    return sorted({f.rule for f in report.findings})


def test_unmodified_job_module_is_clean(tmp_path):
    report = seeded_report(tmp_path, lambda s: s + "\n# control copy\n")
    assert report.findings == [], rules_of(report)
    assert report.exit_code == 0


def test_seeded_tainted_cache_key_fires_sl110(tmp_path):
    seed = (
        "\n\ndef cache_key(entry):\n"
        "    return f\"{id(entry):x}\"\n"
    )
    report = seeded_report(tmp_path, lambda s: s + seed)
    assert report.exit_code == 1
    # SL110 is the flow finding: the taint reaches the sink's return.
    assert rules_of(report) == ["SL110"]


def test_seeded_wall_clock_phase_key_fires_sl110(tmp_path):
    def seed(source):
        source = source.replace("import hashlib\n",
                                "import hashlib\nimport time\n")
        return source.replace(
            '"codec": PHASE_CODEC_VERSION,',
            '"codec": PHASE_CODEC_VERSION, "at": time.time(),',
        )

    report = seeded_report(tmp_path, seed)
    assert report.exit_code == 1
    flows = [f for f in report.findings if f.rule == "SL110"]
    assert any("phase_key" in f.message for f in flows), rules_of(report)
