"""repro.simlint — determinism & invariant static analysis for the simulator.

The reproduction's contracts — bit-identical event streams between the
scalar and wave tracers, stepped ≡ vector timing, the SMS
conservation laws, picklable ``__slots__`` hot-path records — are all
*runtime*-checkable, which means a violation is only caught when a test
happens to exercise it.  ``simlint`` rejects whole classes of hazard at
review time instead: it parses every source file into an AST and runs a
registry of purpose-built rules over it.

Rule families (see :mod:`repro.simlint.rules`):

``SL1xx`` (determinism)
    wall-clock reads, unseeded RNG, unordered-collection iteration,
    object-identity (``id()``) ordering in the timing-critical packages.
``SL2xx`` (bit-identity)
    module-level singleton mutation, ``__slots__`` pickle-contract
    violations, counter writes outside the owning package, and the
    counter-parity obligation of an alternative timing backend.
``SL3xx`` (diagnostics conventions)
    raw builtin exceptions where a ``DiagnosticError`` is required,
    broad ``except`` handlers that swallow without recording.
``SL4xx`` (hygiene)
    mutable default arguments, stray ``print()`` in library code.
``SL6xx`` (vector)
    float64 promotion into integer counters, SoA mirror-cache mutation,
    unstable numpy sorts/reductions and unchecked CSR offsets in the
    vector timing backend.
``SL110`` (whole-program taint)
    entropy (clock/RNG/``id``/``hash``/set order) flowing — through
    helpers and module boundaries — into counters, job content keys or
    scheduler ordering decisions.

The whole-program layer (:mod:`repro.simlint.project`) summarizes every
file into a JSON-serializable form, assembles a symbol table + call
graph with re-export resolution, and persists the summaries in an
incremental cache (:mod:`repro.simlint.cache`) keyed on content hashes,
so a warm ``repro lint`` re-parses nothing and re-analyzes only files
whose content or import closure changed.

Findings can be silenced per line (``# simlint: disable=SL101``), per
file (``# simlint: disable-file=SL103``), or grandfathered through the
committed baseline file (schema 2: line-drift-stable context hashes).
Exit codes are stable: 0 clean, 1 findings, 2 usage/internal error.
Run it as ``repro lint [paths ...]`` (``--changed`` lints only the
files touched in the working tree).
"""

from repro.simlint.baseline import (
    Baseline,
    context_hash_for,
    load_baseline,
    write_baseline,
)
from repro.simlint.cache import AnalysisCache
from repro.simlint.changed import changed_python_files
from repro.simlint.config import LintConfig, load_config
from repro.simlint.engine import LintReport, lint_paths, lint_source
from repro.simlint.model import Finding, Severity
from repro.simlint.project import FileSummary, ProjectGraph, content_hash
from repro.simlint.registry import RULES, all_rules, get_rule, register
from repro.simlint import rules as _rules  # noqa: F401  (populates RULES)
from repro.simlint.reporters import render_json, render_sarif, render_text

__all__ = [
    "AnalysisCache",
    "Baseline",
    "FileSummary",
    "Finding",
    "LintConfig",
    "LintReport",
    "ProjectGraph",
    "RULES",
    "Severity",
    "all_rules",
    "changed_python_files",
    "content_hash",
    "context_hash_for",
    "get_rule",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "load_config",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "write_baseline",
]
