"""SL204 counter parity: the backend's oracle-coverage check.

The fixture pair covers the headline case; these tests pin the edge
behavior — exempt counters, writes reached through helper methods and
local aliases, an unreadable oracle path, classes that declare no
oracle — and the meta-case that the real ``VectorRTUnit.run`` passes
the check today, plus the seeded red gate proving it still fires.
"""

from pathlib import Path

from repro.simlint import lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]
VECTOR_UNIT = REPO_ROOT / "src" / "repro" / "gpu" / "vector" / "unit.py"


def sl204_oracle(source, path, module="repro.gpu.vector.unit"):
    findings = lint_source(source, path=str(path), module=module)
    return [f for f in findings if f.rule == "SL204"]


def test_real_vector_unit_satisfies_counter_oracle():
    """VectorRTUnit.run reaches a write of every non-exempt counter."""
    assert sl204_oracle(VECTOR_UNIT.read_text(), VECTOR_UNIT) == []


def test_seeded_dropped_counter_write_is_caught():
    """The red gate: delete one counter fold from the real vector unit
    and SL204 must name the now-unwritten field."""
    source = VECTOR_UNIT.read_text()
    needle = "counters.l1_misses += l1_misses"
    assert needle in source
    seeded = source.replace(needle, "pass")
    findings = sl204_oracle(seeded, VECTOR_UNIT)
    assert any("`l1_misses`" in f.message for f in findings), [
        f.message for f in findings
    ]
    # Every other counter write is intact, so exactly one field fires.
    assert len(findings) == 1


def test_exempt_counter_is_not_required(tmp_path):
    oracle = tmp_path / "counters.py"
    oracle.write_text(
        "class Counters:\n"
        "    cycles: int = 0\n"
        "    steps: int = 0\n"
    )
    unit = tmp_path / "unit.py"
    source = (
        "class Unit:\n"
        "    COUNTER_PARITY_ORACLE = 'counters.py'\n"
        "    COUNTER_PARITY_EXEMPT = ('cycles',)\n"
        "    def run(self):\n"
        "        self.counters.steps += 1\n"
    )
    assert sl204_oracle(source, unit) == []


def test_missing_counter_write_fires_per_field(tmp_path):
    oracle = tmp_path / "counters.py"
    oracle.write_text(
        "class Counters:\n"
        "    steps: int = 0\n"
        "    stalls: int = 0\n"
    )
    unit = tmp_path / "unit.py"
    source = (
        "class Unit:\n"
        "    COUNTER_PARITY_ORACLE = 'counters.py'\n"
        "    def run(self):\n"
        "        self._tick()\n"
        "    def _tick(self):\n"
        "        counters = self.counters\n"
        "        counters.steps += 1\n"
    )
    (finding,) = sl204_oracle(source, unit)
    assert "`stalls`" in finding.message
    # The alias write through the helper covered `steps`.
    assert "`steps`" not in finding.message


def test_unresolvable_oracle_path_is_a_finding(tmp_path):
    unit = tmp_path / "unit.py"
    source = (
        "class Unit:\n"
        "    COUNTER_PARITY_ORACLE = 'no_such_file.py'\n"
        "    def run(self):\n"
        "        pass\n"
    )
    (finding,) = sl204_oracle(source, unit)
    assert "could not be read" in finding.message


def test_class_without_oracle_declaration_is_untouched(tmp_path):
    unit = tmp_path / "unit.py"
    source = (
        "class Unit:\n"
        "    def run(self):\n"
        "        pass\n"
    )
    assert sl204_oracle(source, unit) == []
