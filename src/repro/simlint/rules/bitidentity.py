"""SL2xx — bit-identity rules.

The bit-identity contracts (wave ≡ scalar tracing, stepped ≡ vector
timing) and the runtime's content-addressed cache both assume that
shared objects are immutable and that every counter is written by
exactly one component.  These rules make those assumptions checkable at
review time.  The backend counter-parity oracle (SL204) lives in
:mod:`repro.simlint.rules.mutation_surface`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.simlint.model import Finding
from repro.simlint.project import MUTATING_METHODS  # noqa: F401  (re-export)
from repro.simlint.registry import Rule, register

_ALL_CAPS = re.compile(r"^[A-Z][A-Z0-9_]{2,}$")


def _root_name(node: ast.AST) -> Optional[str]:
    """The leftmost Name of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@register
class SingletonMutationRule(Rule):
    id = "SL201"
    title = "mutation of a module-level singleton"
    severity = "error"
    scope = "repro"
    category = "bit-identity"
    rationale = (
        "Module-level singletons (EMPTY_ACTIVITY, DEFAULT_PARAMS, "
        "SCENE_NAMES, ...) are shared by every warp, job and worker "
        "in the process; mutating one turns a local change into "
        "action-at-a-distance that breaks bit-identity between runs that "
        "touch it in different orders.  Treat them as frozen: copy, "
        "don't patch.  (The configured name list extends the ALL_CAPS "
        "convention.)"
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        name = _root_name(target)
                        if name and self._is_singleton(ctx, name):
                            yield ctx.finding(
                                self, node,
                                f"write into module-level singleton "
                                f"{name} — shared state must stay frozen",
                            )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
            ):
                name = _root_name(node.func.value)
                if name and self._is_singleton(ctx, name):
                    yield ctx.finding(
                        self, node,
                        f"{name}.{node.func.attr}(...) mutates a "
                        f"module-level singleton in place",
                    )

    @staticmethod
    def _is_singleton(ctx, name: str) -> bool:
        return name in ctx.config.singletons or bool(_ALL_CAPS.match(name))


@register
class SlotsPickleRule(Rule):
    id = "SL202"
    title = "__slots__ that breaks the pickle round-trip contract"
    severity = "error"
    scope = "repro"
    category = "bit-identity"
    rationale = (
        "Hot-path records (Step, RayTrace, Warp, MemoryOp, StackActivity) "
        "are __slots__ classes that must pickle across worker-process "
        "boundaries, and the round-trip fixtures enumerate their fields "
        "from the class body.  A computed __slots__ hides fields from "
        "those fixtures; including __dict__ silently reopens per-instance "
        "dicts and voids the memory contract the slots exist for."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if not (
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets
                    )
                ):
                    continue
                names = self._literal_slots(stmt.value)
                if names is None:
                    yield ctx.finding(
                        self, stmt,
                        f"class {node.name}: __slots__ must be a literal "
                        f"tuple/list of string constants so the pickle "
                        f"round-trip fixtures can enumerate its fields",
                    )
                elif "__dict__" in names:
                    yield ctx.finding(
                        self, stmt,
                        f"class {node.name}: '__dict__' in __slots__ "
                        f"reopens the per-instance dict and voids the "
                        f"slots memory contract",
                    )

    @staticmethod
    def _literal_slots(value: ast.AST):
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return [value.value]
        if isinstance(value, (ast.Tuple, ast.List)):
            names = []
            for element in value.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                names.append(element.value)
            return names
        return None


@register
class CounterOwnershipRule(Rule):
    id = "SL203"
    title = "counter write outside the owning component"
    severity = "error"
    scope = "repro"
    category = "bit-identity"
    rationale = (
        "Counters is the simulator's measurement ledger: every figure in "
        "the paper reproduction is computed from it, and the guard's "
        "conservation laws cross-check it against the stack models.  "
        "Writes are owned by the timing components (repro.gpu); a counter "
        "incremented from anywhere else (experiments, runtime, guards) "
        "is unaccounted traffic the conservation laws cannot see."
    )

    def check(self, ctx) -> Iterator[Finding]:
        if ctx.module is not None and any(
            ctx.module == pkg or ctx.module.startswith(pkg + ".")
            for pkg in ctx.config.counter_owners
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and self._counter_receiver(target.value)
                ):
                    yield ctx.finding(
                        self, node,
                        f"write to counter field .{target.attr} outside "
                        f"the owning package "
                        f"({', '.join(ctx.config.counter_owners)})",
                    )

    @staticmethod
    def _counter_receiver(node: ast.AST) -> bool:
        """Does the attribute chain end in a ``counters`` object?"""
        if isinstance(node, ast.Name):
            return node.id in ("counters", "_counters")
        if isinstance(node, ast.Attribute):
            return node.attr in ("counters", "_counters")
        return False
