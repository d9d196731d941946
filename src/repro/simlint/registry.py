"""Pluggable rule registry.

A rule is a class with an ``id`` (``SLxxx``), a scope, a one-line
``title`` and a ``rationale`` paragraph (both feed the rule catalog in
``docs/architecture.md`` and ``repro lint --list-rules``), and a
``check(ctx)`` generator yielding findings.  Decorating the class with
:func:`register` makes it part of every lint run; tests can instantiate
rules directly against a context instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Type

from repro.errors import ReproError
from repro.simlint.model import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simlint.engine import FileContext


class Rule:
    """Base class for simlint rules."""

    #: Rule identifier, e.g. ``"SL101"``.
    id: str = ""
    #: One-line summary for catalogs and reporters.
    title: str = ""
    #: Rule family: determinism / bit-identity / diagnostics / hygiene /
    #: vector.
    category: str = ""
    #: Why this rule exists, in terms of the simulator's contracts.
    rationale: str = ""
    #: Where the rule applies: ``"timing"`` (the timing-critical
    #: packages), ``"vector"`` (the vector timing backend), ``"repro"``
    #: (anywhere under the ``repro`` package — plus ``tools/``, and
    #: ``tests/`` for the configured test families), or ``"all"`` (every
    #: linted file).
    scope: str = "repro"

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def applies_to(self, ctx: "FileContext") -> bool:
        """Scope filter: does this rule run against ``ctx`` at all?"""
        if self.scope == "all":
            return True
        if ctx.module is None:
            if getattr(ctx, "is_test", False):
                # Tests get the configured families (determinism and
                # hygiene by default): the harness must not smuggle
                # entropy or stdout noise, but bit-identity/diagnostics
                # conventions are library contracts, not test contracts.
                return (
                    self.scope == "repro"
                    and self.category in ctx.config.test_families
                )
            if getattr(ctx, "is_tool", False):
                # Tools are repro-grade library code with a __main__.
                return self.scope == "repro"
            return False
        if self.scope == "timing":
            return _under_any(ctx.module, ctx.config.timing_critical)
        if self.scope == "vector":
            return _under_any(ctx.module, ctx.config.vector_packages)
        return True  # "repro": any module under the package


def _under_any(module: str, packages) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


#: The global rule registry, keyed by rule id.
RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add a rule to the registry."""
    rule = cls()
    if not rule.id or not rule.title or not rule.rationale:
        raise ReproError(
            f"simlint rule {cls.__name__} must define id, title and rationale"
        )
    if rule.id in RULES:
        raise ReproError(f"duplicate simlint rule id {rule.id}")
    # Import-time setup of the module-own registry singleton.
    RULES[rule.id] = rule  # simlint: disable=SL201
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in id order."""
    return [RULES[rule_id] for rule_id in sorted(RULES)]
