"""Determinism taint: from entropy sources to the sinks that matter.

The SL1xx rules reject *calls* to nondeterministic APIs at the call
site.  That leaves a blind spot: a wall-clock read that is allowed
somewhere (or merely missed) can still *flow* — through locals, helper
returns and module boundaries — into state that must be a pure function
of (scene, config, seed): ``Counters`` fields, ``SimulationJob``
content keys, cache salts, scheduler ordering decisions.  This module
tracks that flow.

Design, in three layers:

* :func:`classify_source` labels the roots: wall/host clocks,
  process-global RNG, OS entropy, ``id()`` / ``hash()`` address- and
  seed-dependence, and hash-order materialization (``list(set(...))``).
* :class:`TaintAnalyzer` runs a conservative, flow-insensitive-ish
  abstract interpretation over one function body (two passes, so
  loop-carried locals converge) and reports events through hooks:
  stores, returns, ordering calls.  With a ``lookup`` it consults
  cross-module function summaries, so taint follows calls it cannot
  inline.
* :func:`structural_taint` is the summary extractor (what a function's
  return can carry *structurally*: direct source labels, parameter
  pass-through, callee returns), and :func:`propagate_taint` closes
  those summaries over the project call graph to a fixpoint.

Everything here is deliberately over-approximate in the value domain
(any operation on a tainted value stays tainted) and under-approximate
in the alias domain (only named locals are tracked) — the combination
that keeps the sink rules quiet on clean code and loud on real flows.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.simlint.rules.determinism import (
    HOST_CLOCK,
    UNSEEDED_ENTROPY,
    UNSEEDED_ENTROPY_PREFIXES,
    WALL_CLOCK,
)

#: Taint labels, in the vocabulary findings use.
LABEL_CLOCK = "wall-clock"
LABEL_RNG = "process-global RNG"
LABEL_OS_ENTROPY = "OS entropy"
LABEL_ID = "id() address"
LABEL_HASH = "hash() randomization"
LABEL_SET_ORDER = "set iteration order"

#: Seeded constructors are the sanctioned RNG entry points, not sources.
_SEEDED_RNG = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
}

#: Materializing an unordered collection hands hash order to the caller.
_ORDER_MATERIALIZERS = {"list", "tuple", "iter"}


def classify_source(dotted: Optional[str]) -> Optional[str]:
    """The taint label a call to ``dotted`` introduces, if any."""
    if dotted is None:
        return None
    if dotted in WALL_CLOCK or dotted in HOST_CLOCK:
        return LABEL_CLOCK
    if dotted == "id":
        return LABEL_ID
    if dotted == "hash":
        return LABEL_HASH
    if dotted == "random.SystemRandom" or dotted in UNSEEDED_ENTROPY:
        return LABEL_OS_ENTROPY
    if dotted.startswith(UNSEEDED_ENTROPY_PREFIXES):
        return LABEL_OS_ENTROPY
    if dotted.startswith("random.") and dotted not in _SEEDED_RNG:
        return LABEL_RNG
    if dotted.startswith("numpy.random.") and dotted not in _SEEDED_RNG:
        return LABEL_RNG
    return None


class Taint:
    """A taint value: source labels plus parameter pass-through."""

    __slots__ = ("labels", "params")

    def __init__(
        self,
        labels: Optional[Set[str]] = None,
        params: Optional[Set[int]] = None,
    ) -> None:
        self.labels: Set[str] = set(labels or ())
        self.params: Set[int] = set(params or ())

    def __bool__(self) -> bool:
        return bool(self.labels or self.params)

    def __or__(self, other: "Taint") -> "Taint":
        return Taint(self.labels | other.labels, self.params | other.params)

    def copy(self) -> "Taint":
        return Taint(self.labels, self.params)


CLEAN = Taint()

#: Cross-module summary shape: canonical name → labels / param indices.
SummaryLookup = Callable[[Optional[str]], Optional[Dict]]


class TaintAnalyzer:
    """Abstract interpretation of one function body.

    Statements are processed in source order twice — the first pass
    seeds the environment (so loop-carried and forward-referenced
    locals are known), the second emits events.  Branch bodies share
    one environment (path-insensitive), nested function bodies are
    skipped (they have their own summaries), and stores through
    anything other than a resolvable dotted chain are dropped.
    """

    def __init__(
        self,
        fn: ast.AST,
        imports: Dict[str, str],
        module: Optional[str] = None,
        cls_name: Optional[str] = None,
        lookup: Optional[SummaryLookup] = None,
        on_store: Optional[Callable] = None,
        on_return: Optional[Callable] = None,
        on_order: Optional[Callable] = None,
        local_defs: Optional[Set[str]] = None,
    ) -> None:
        self._fn = fn
        self._imports = imports
        self._module = module
        self._cls = cls_name
        self._local_defs = local_defs or set()
        self._lookup = lookup
        self._on_store = on_store
        self._on_return = on_return
        self._on_order = on_order
        args = fn.args
        names = [
            a.arg
            for a in (
                list(getattr(args, "posonlyargs", []))
                + list(args.args)
                + list(args.kwonlyargs)
            )
        ]
        self._params: Dict[str, int] = {n: i for i, n in enumerate(names)}
        self._env: Dict[str, Taint] = {}
        #: (callee dotted, caller params passed) for calls whose result
        #: reaches a return — the structural summary's call edges.
        self.return_calls: Set[Tuple[str, Tuple[int, ...]]] = set()
        self.return_taint = Taint()

    def run(self) -> None:
        body = list(getattr(self._fn, "body", []))
        self._walk(body, emit=False)
        self._walk(body, emit=True)

    # -- statements -----------------------------------------------------

    def _walk(self, stmts: Sequence[ast.stmt], emit: bool) -> None:
        for stmt in stmts:
            self._statement(stmt, emit)

    def _statement(self, stmt: ast.stmt, emit: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, emit)
            for target in stmt.targets:
                self._store(target, value, stmt, emit)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, emit) | self._eval(
                stmt.target, emit=False
            )
            self._store(stmt.target, value, stmt, emit)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._store(stmt.target, self._eval(stmt.value, emit), stmt, emit)
        elif isinstance(stmt, ast.Return):
            taint = (
                self._eval(stmt.value, emit)
                if stmt.value is not None
                else CLEAN
            )
            if emit:
                self.return_taint = self.return_taint | taint
                if stmt.value is not None:
                    self._collect_return_calls(stmt.value)
                if self._on_return is not None:
                    self._on_return(stmt, taint)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._store(stmt.target, self._eval(stmt.iter, emit), stmt,
                        emit=False)
            self._walk(stmt.body, emit)
            self._walk(stmt.orelse, emit)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr, emit)
                if item.optional_vars is not None:
                    self._store(item.optional_vars, taint, stmt, emit=False)
            self._walk(stmt.body, emit)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test, emit)
            self._walk(stmt.body, emit)
            self._walk(stmt.orelse, emit)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body, emit)
            for handler in stmt.handlers:
                self._walk(handler.body, emit)
            self._walk(stmt.orelse, emit)
            self._walk(stmt.finalbody, emit)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, emit)

    def _store(
        self, target: ast.AST, value: Taint, stmt: ast.stmt, emit: bool
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element, value, stmt, emit)
            return
        if isinstance(target, ast.Starred):
            self._store(target.value, value, stmt, emit)
            return
        if isinstance(target, ast.Name):
            self._env[target.id] = value.copy()
        if emit and self._on_store is not None:
            self._on_store(target, value, stmt)

    # -- expressions ----------------------------------------------------

    def _eval(self, node: Optional[ast.AST], emit: bool) -> Taint:
        if node is None or isinstance(node, ast.Constant):
            return CLEAN
        if isinstance(node, ast.Name):
            if node.id in self._env:
                return self._env[node.id]
            if node.id in self._params:
                return Taint(params={self._params[node.id]})
            return CLEAN
        if isinstance(node, ast.Call):
            return self._eval_call(node, emit)
        if isinstance(node, ast.Lambda):
            return CLEAN
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return CLEAN
        # Attribute / Subscript / BinOp / BoolOp / Compare / IfExp /
        # comprehensions / f-strings / containers: taint is the union of
        # the children — any derivation of a tainted value is tainted.
        taint = Taint()
        for child in ast.iter_child_nodes(node):
            taint = taint | self._eval(child, emit)
        return taint

    def _eval_call(self, node: ast.Call, emit: bool) -> Taint:
        dotted = self._dotted(node.func)
        args_taint = Taint()
        per_arg: List[Taint] = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            taint = self._eval(arg, emit)
            per_arg.append(taint)
            args_taint = args_taint | taint
        label = classify_source(dotted)
        if label is not None:
            return Taint(labels={label})
        if dotted in _ORDER_MATERIALIZERS and node.args:
            if self._is_unordered(node.args[0]):
                return args_taint | Taint(labels={LABEL_SET_ORDER})
        if (
            emit
            and dotted in ("sorted", "min", "max")
            and args_taint
            and self._on_order is not None
        ):
            self._on_order(node, args_taint)
        summary = self._lookup(dotted) if self._lookup is not None else None
        if summary is not None:
            taint = Taint(labels=set(summary.get("labels", ())))
            for index in summary.get("params", ()):
                if 0 <= index < len(per_arg):
                    taint = taint | per_arg[index]
            return taint
        # Unknown callee: conservatively, the result carries whatever
        # its arguments carried (str(now), math.floor(now), ...), and a
        # method call whatever its receiver carried (blob.encode(), a
        # digest's .hexdigest(), ...).
        if isinstance(node.func, ast.Attribute):
            args_taint = args_taint | self._eval(node.func.value, emit)
        return args_taint

    def _is_unordered(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return self._dotted(node.func) in ("set", "frozenset")
        return False

    def _dotted(self, func: ast.AST) -> Optional[str]:
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root == "self" and self._cls and self._module and len(parts) == 1:
            return f"{self._module}.{self._cls}.{parts[0]}"
        if (
            not parts
            and root not in self._imports
            and root in self._local_defs
            and self._module
        ):
            # Bare call to a same-module helper: qualify it so project
            # summaries and lookups resolve it.
            return f"{self._module}.{root}"
        parts.append(self._imports.get(root, root))
        return ".".join(reversed(parts))

    def _collect_return_calls(self, value: ast.AST) -> None:
        for node in ast.walk(value):
            if not isinstance(node, ast.Call):
                continue
            dotted = self._dotted(node.func)
            if dotted is None or classify_source(dotted) is not None:
                continue
            passed: Set[int] = set()
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for name in ast.walk(arg):
                    if (
                        isinstance(name, ast.Name)
                        and name.id in self._params
                    ):
                        passed.add(self._params[name.id])
            self.return_calls.add((dotted, tuple(sorted(passed))))


def structural_taint(
    fn: ast.AST,
    imports: Dict[str, str],
    module: Optional[str],
    cls_name: Optional[str],
    local_defs: Optional[Set[str]] = None,
) -> Tuple[Set[str], Set[int], Set[Tuple[str, Tuple[int, ...]]]]:
    """One function's summary-level taint facts, with no project view.

    Returns ``(labels, return_params, return_calls)``: source labels
    that reach a return directly, parameter indices that flow to a
    return, and the call edges :func:`propagate_taint` closes over.
    """
    analyzer = TaintAnalyzer(fn, imports, module=module, cls_name=cls_name,
                             local_defs=local_defs)
    analyzer.run()
    return (
        analyzer.return_taint.labels,
        analyzer.return_taint.params,
        analyzer.return_calls,
    )


def propagate_taint(graph) -> Dict[str, Dict]:
    """Close structural summaries over the call graph to a fixpoint.

    Two facts propagate along ``return_calls`` edges: a callee's return
    labels become the caller's (its return feeds the caller's return),
    and if the callee passes *its* parameters through, the caller
    parameters fed into that call become pass-through too.  Cycles
    terminate because both domains only grow and are finite.
    """
    functions = graph.functions()
    labels: Dict[str, Set[str]] = {}
    params: Dict[str, Set[int]] = {}
    for name, fn in functions.items():
        labels[name] = set(fn.taint_sources)
        params[name] = set(fn.taint_return_params)
    changed = True
    while changed:
        changed = False
        for name, fn in functions.items():
            for callee, passed in fn.taint_return_calls:
                target = graph.resolve(callee)
                if target is None:
                    continue
                if not labels[target] <= labels[name]:
                    labels[name] |= labels[target]
                    changed = True
                if params[target] and not set(passed) <= params[name]:
                    params[name] |= set(passed)
                    changed = True
    return {
        name: {"labels": labels[name], "params": params[name]}
        for name in functions
    }
