"""SL4xx — hygiene rules.

Smaller hazards that erode the same contracts more slowly: state shared
through default arguments, and stdout pollution from library code that
corrupts machine-read output (the JSON reporters, piped CLI output).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.simlint.model import Finding
from repro.simlint.registry import Rule, register

#: Expressions that evaluate to a fresh mutable object per call site —
#: deadly when evaluated once at def time instead.
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict",
                  "OrderedDict", "Counter", "deque"}


@register
class MutableDefaultRule(Rule):
    id = "SL401"
    title = "mutable default argument"
    scope = "all"
    category = "hygiene"
    rationale = (
        "A mutable default is evaluated once and then shared by every "
        "call — hidden cross-call state of exactly the kind that makes "
        "two identical campaign runs diverge.  Default to None and "
        "construct inside the function."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._mutable(ctx, default):
                    yield ctx.finding(
                        self, default,
                        f"function {node.name}: mutable default argument "
                        f"is shared across calls — default to None",
                    )

    @staticmethod
    def _mutable(ctx, node: ast.AST) -> bool:
        if isinstance(node, _MUTABLE_LITERALS):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS
        )


@register
class StrayPrintRule(Rule):
    id = "SL402"
    title = "print() in library code"
    scope = "repro"
    category = "hygiene"
    rationale = (
        "Library modules run under worker pools, the JSON reporters and "
        "piped CLI commands; a stray print() interleaves with — and "
        "corrupts — machine-read stdout.  Presentation belongs to the "
        "CLI layer (LintConfig.print_allowed); diagnostics belong in "
        "logging or structured failure records."
    )

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.module in ctx.config.print_allowed:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(
                    self, node,
                    "print() in library code pollutes machine-read "
                    "stdout — use logging or return the text",
                )
