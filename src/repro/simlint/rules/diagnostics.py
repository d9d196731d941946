"""SL3xx — diagnostics-convention rules.

A failure deep inside a long campaign must pinpoint itself: simulation
code raises :class:`~repro.errors.DiagnosticError` subclasses carrying
cycle/sm/warp/lane coordinates, and nothing may swallow an exception
without leaving a structured trace of it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.simlint.model import Finding
from repro.simlint.registry import Rule, register

#: Builtin exceptions that carry no simulation coordinates.  Timing-
#: critical code must raise a DiagnosticError subclass instead.
RAW_EXCEPTIONS = {
    "Exception",
    "BaseException",
    "ValueError",
    "RuntimeError",
    "TypeError",
    "KeyError",
    "IndexError",
    "ArithmeticError",
    "ZeroDivisionError",
    "AssertionError",
    "OSError",
    "IOError",
}

#: Broad handler types SL302 inspects.
BROAD_HANDLERS = {"Exception", "BaseException"}


@register
class RawExceptionRule(Rule):
    id = "SL301"
    title = "raw builtin exception raised in timing-critical code"
    scope = "timing"
    category = "diagnostics"
    rationale = (
        "repro.errors defines a DiagnosticError hierarchy whose "
        "cycle/sm/warp/lane fields make a failure self-locating, and the "
        "executor keys retry/no-retry policy on those types "
        "(GuardViolationError is deterministic and never retried).  A "
        "bare ValueError from the timing model is invisible to that "
        "policy and unplaceable in a million-cycle campaign."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = self._exception_name(node.exc)
            if name in RAW_EXCEPTIONS:
                yield ctx.finding(
                    self, node,
                    f"raise {name} in timing-critical code — raise a "
                    f"DiagnosticError subclass from repro.errors with "
                    f"cycle/warp/lane coordinates instead",
                )

    @staticmethod
    def _exception_name(exc: ast.AST) -> Optional[str]:
        if isinstance(exc, ast.Call):
            exc = exc.func
        return exc.id if isinstance(exc, ast.Name) else None


@register
class SwallowedExceptionRule(Rule):
    id = "SL302"
    title = "broad except handler that swallows without recording"
    scope = "repro"
    category = "diagnostics"
    rationale = (
        "except Exception that neither re-raises nor touches the caught "
        "object erases the only evidence of what went wrong — the guard "
        "layer exists precisely because silent failure modes corrupt "
        "measurements invisibly.  A broad handler must bind the "
        "exception and record it (structured failure file, report field, "
        "log) or re-raise."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._reraises(node):
                continue
            if node.name and self._uses_name(node, node.name):
                continue
            label = "bare except:" if node.type is None else "except Exception"
            yield ctx.finding(
                self, node,
                f"{label} swallows the exception without recording it — "
                f"bind it and attach it to a structured failure record, "
                f"or re-raise",
            )

    @staticmethod
    def _is_broad(type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        names = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        return any(
            isinstance(name, ast.Name) and name.id in BROAD_HANDLERS
            for name in names
        )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(node, ast.Raise)
            for stmt in handler.body
            for node in ast.walk(stmt)
        )

    @staticmethod
    def _uses_name(handler: ast.ExceptHandler, name: str) -> bool:
        return any(
            isinstance(node, ast.Name) and node.id == name
            for stmt in handler.body
            for node in ast.walk(stmt)
        )
