"""repro.simlint — determinism & invariant static analysis for the simulator.

The reproduction's contracts — stepped ≡ vector timing, the SMS
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
    float64 promotion into integer counters, plan-cache mutation,
    unstable numpy sorts/reductions and unchecked CSR offsets in the
    vector timing backend.
``SL110`` (whole-program taint)
    entropy (clock/RNG/``id``/``hash``/set order) flowing — through
    helpers and module boundaries — into counters, job content keys or
    scheduler ordering decisions.

The whole-program layer (:mod:`repro.simlint.project`) summarizes every
file, then assembles a symbol table + call graph with re-export
resolution.  Each ``repro lint`` run is one cold pass over the tree with
this repository's settings (:class:`~repro.simlint.config.LintConfig`'s
defaults).

Every finding is an error.  Findings are silenced per line
(``# simlint: disable=SL101``) or per file
(``# simlint: disable-file=SL103``), and nowhere else.  Exit codes are
stable: 0 clean, 1 findings, 2 usage/internal error.  Run it as
``repro lint [paths ...]``.
"""

from repro.simlint.config import LintConfig
from repro.simlint.engine import LintReport, lint_paths, lint_source
from repro.simlint.model import Finding
from repro.simlint.project import FileSummary, ProjectGraph
from repro.simlint.registry import RULES, all_rules, register
from repro.simlint import rules as _rules  # noqa: F401  (populates RULES)
from repro.simlint.reporters import render_json, render_text

__all__ = [
    "FileSummary",
    "Finding",
    "LintConfig",
    "LintReport",
    "ProjectGraph",
    "RULES",
    "all_rules",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_text",
]
