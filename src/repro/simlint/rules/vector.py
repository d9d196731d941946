"""SL6xx — numpy/vector-backend rules.

PR 9's vector timing backend is bit-identical to the stepped scheduler
only under four invariants that numpy makes easy to break silently:
counter arithmetic stays integer (float64 promotion rounds), the
plans cached on ``RayTrace._vector_cache`` are immutable outside their
builders (a mutated plan serves stale timing to every later run),
reductions and sorts are order-stable (quicksort ties and hash-order
operands reorder float accumulation), and CSR pack/unpack offsets are
validated before they index (a truncated ``push_off`` silently drops
pushes instead of failing).  Each rule pins one invariant.

All four are scope-limited to the configured vector packages
(``repro.gpu.vector``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.simlint.model import Finding
from repro.simlint.project import MUTATING_METHODS, expr_key
from repro.simlint.registry import Rule, register

#: RHS call targets that produce floats from integer operands.
_FLOAT_PRODUCERS = {
    "float",
    "numpy.mean",
    "numpy.average",
    "numpy.divide",
    "numpy.true_divide",
    "numpy.float64",
    "numpy.float32",
}

#: numpy sorts whose default kind (introsort) is unstable.
_UNSTABLE_SORTS = {"numpy.argsort", "numpy.sort"}
_STABLE_KINDS = {"stable", "mergesort"}


def _counter_chain(target: ast.AST) -> Optional[str]:
    """The dotted key of a store into a Counters field, if it is one."""
    if not isinstance(target, ast.Attribute):
        return None
    key = expr_key(target)
    if key is None:
        return None
    parts = key.split(".")
    return key if "counters" in parts[:-1] or "_counters" in parts[:-1] else None


@register
class FloatPromotedCounterRule(Rule):
    id = "SL601"
    title = "float-promoting arithmetic written into an int counter"
    scope = "vector"
    category = "vector"
    rationale = (
        "Counters are integer event counts, and stepped/vector parity "
        "is bitwise equality on them.  numpy promotes int64 through "
        "true division, means and float constants to float64 — and a "
        "counter fold that rounds 9.999999999 back to 9 (or stores a "
        "float) diverges from the stepped loop on exactly the workloads "
        "big enough to accumulate error.  Counter RHS math must stay in "
        "integer ops (//, sums of ints) or wrap the final value in "
        "int() after exact arithmetic."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            chains = [c for c in map(_counter_chain, targets) if c]
            if not chains:
                continue
            hazard = self._float_hazard(ctx, node.value)
            if hazard is not None:
                yield ctx.finding(
                    self, node,
                    f"write to {chains[0]} goes through {hazard} — "
                    f"float64 promotion breaks bitwise counter parity; "
                    f"keep the arithmetic integral (//) or wrap in int()",
                )

    def _float_hazard(self, ctx, value: ast.AST) -> Optional[str]:
        """A float-producing node in ``value`` not sanctioned by int()."""
        int_guarded: Set[int] = set()
        for node in ast.walk(value):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "int"
            ):
                for inner in ast.walk(node):
                    int_guarded.add(id(inner))
        for node in ast.walk(value):
            if id(node) in int_guarded:
                continue
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                return "true division (/)"
            if isinstance(node, ast.Constant) and isinstance(
                node.value, float
            ):
                return f"a float constant ({node.value!r})"
            if isinstance(node, ast.Call):
                dotted = ctx.resolve(node.func)
                if dotted in _FLOAT_PRODUCERS:
                    return f"{dotted}()"
        return None


@register
class SoACacheMutationRule(Rule):
    id = "SL602"
    title = "vector plan cache mutated outside its sanctioned writers"
    scope = "vector"
    category = "vector"
    rationale = (
        "warp_plan caches each warp's plan on its trace's "
        "_vector_cache slot and every later vector run trusts it "
        "verbatim — the plan is memoized *derived* data, never an "
        "input.  A write from anywhere else (a 'fast path' tweaking a "
        "cached record, a test poking state in) silently serves stale "
        "or divergent timing to every subsequent run over that trace.  "
        "Mutation is restricted to LintConfig.soa_cache_writers "
        "(trace_cache/warp_plan, which populate fresh entries); "
        "everything else must replan."
    )

    def check(self, ctx) -> Iterator[Finding]:
        writers = set(ctx.config.soa_cache_writers)
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name in writers:
                continue
            cache_locals = self._cache_locals(ctx, fn)
            for node in self._own_walk(fn):
                yield from self._check_node(ctx, fn, node, cache_locals)

    @staticmethod
    def _own_walk(fn) -> Iterator[ast.AST]:
        stack: List[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _cache_locals(self, ctx, fn) -> Set[str]:
        """Locals bound from ``trace_cache(...)`` or ``._vector_cache``."""
        names: Set[str] = set()
        for node in self._own_walk(fn):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and ctx.resolve(value.func) is not None
                and ctx.resolve(value.func).rsplit(".", 1)[-1]
                == "trace_cache"
            ):
                names.add(node.targets[0].id)
            elif (
                isinstance(value, ast.Attribute)
                and value.attr == "_vector_cache"
            ):
                names.add(node.targets[0].id)
        return names

    def _check_node(self, ctx, fn, node: ast.AST, cache_locals: Set[str]):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    # Rebinding a local alias is not a cache mutation
                    # (it is how aliases are *created*).
                    continue
                if self._hits_cache(target, cache_locals):
                    yield ctx.finding(
                        self, node,
                        f"function {fn.name} writes into the vector "
                        f"plan cache (_vector_cache) — only the sanctioned "
                        f"writers ({', '.join(sorted(ctx.config.soa_cache_writers))}) "
                        f"may populate it; replan instead of patching",
                    )
                    return
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and self._hits_cache(node.func.value, cache_locals)
        ):
            yield ctx.finding(
                self, node,
                f"function {fn.name} calls .{node.func.attr}() on the "
                f"vector plan cache (_vector_cache) — cached plans are "
                f"immutable outside the sanctioned writers",
            )

    @staticmethod
    def _hits_cache(node: ast.AST, cache_locals: Set[str]) -> bool:
        """Does this expression address the _vector_cache or an alias?"""
        probe = node
        while isinstance(probe, ast.Subscript):
            probe = probe.value
        if isinstance(probe, ast.Attribute) and probe.attr == "_vector_cache":
            return True
        if isinstance(probe, ast.Name) and probe.id in cache_locals:
            return True
        return False


@register
class UnstableReductionRule(Rule):
    id = "SL603"
    title = "nondeterministic-order numpy sort or reduction"
    scope = "vector"
    category = "vector"
    rationale = (
        "np.argsort/np.sort default to introsort, which breaks ties by "
        "memory layout — two runs over identical data can order equal "
        "keys differently, and any downstream gather or cumulative "
        "reduction then diverges bit-from-bit.  Reductions over hash-"
        "ordered operands (sets) inherit the same run-to-run "
        "instability.  Sorts must pass kind='stable', and reduction "
        "inputs must come from explicitly ordered sequences."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted in _UNSTABLE_SORTS:
                kind = next(
                    (kw.value for kw in node.keywords if kw.arg == "kind"),
                    None,
                )
                stable = (
                    isinstance(kind, ast.Constant)
                    and kind.value in _STABLE_KINDS
                )
                if not stable:
                    yield ctx.finding(
                        self, node,
                        f"{dotted}() without kind='stable' breaks ties "
                        f"by memory layout — equal keys reorder between "
                        f"runs and downstream gathers diverge",
                    )
            elif dotted is not None and dotted.startswith("numpy."):
                for arg in node.args:
                    if self._unordered_operand(ctx, arg):
                        yield ctx.finding(
                            self, node,
                            f"{dotted}() consumes a hash-ordered "
                            f"collection — materialize a sorted/"
                            f"explicitly ordered sequence first",
                        )
                        break

    @staticmethod
    def _unordered_operand(ctx, arg: ast.AST) -> bool:
        if isinstance(arg, (ast.Set, ast.SetComp)):
            return True
        if isinstance(arg, ast.Call):
            return ctx.resolve(arg.func) in ("set", "frozenset")
        if isinstance(arg, ast.GeneratorExp):
            return any(
                isinstance(gen.iter, (ast.Set, ast.SetComp))
                or (
                    isinstance(gen.iter, ast.Call)
                    and ctx.resolve(gen.iter.func) in ("set", "frozenset")
                )
                for gen in arg.generators
            )
        return False


@register
class UncheckedCsrBoundsRule(Rule):
    id = "SL604"
    title = "CSR offset slice without shape validation"
    scope = "vector"
    category = "vector"
    rationale = (
        "Ragged per-step data packed CSR-style is read as "
        "``pushes[push_off[k]:push_off[k+1]]``.  Python slicing "
        "clamps: a truncated or misaligned offsets array does not "
        "raise, it silently returns short rows — dropped pushes, "
        "wrong stack depths, counters that no longer conserve.  Any "
        "function consuming CSR offsets must first validate the "
        "invariants (len(off) == n + 1, off[-1] == len(payload)) and "
        "raise a DiagnosticError on mismatch, so corruption fails loud "
        "at the boundary instead of quiet in the measurements."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            slices = self._csr_slices(fn)
            if not slices:
                continue
            guarded = self._guarded_bases(fn)
            for base, node in slices:
                if base.rsplit(".", 1)[-1] not in guarded:
                    yield ctx.finding(
                        self, node,
                        f"function {fn.name} slices CSR payload with "
                        f"offsets `{base}` but never validates them — "
                        f"check len({base}) and {base}[-1] against the "
                        f"payload and raise a DiagnosticError on "
                        f"mismatch",
                    )

    @staticmethod
    def _csr_slices(fn) -> List[Tuple[str, ast.AST]]:
        """(offsets-base, slice node) for ``a[off[k]:off[k+1]]`` shapes."""
        out: List[Tuple[str, ast.AST]] = []
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Slice)
            ):
                continue
            lower, upper = node.slice.lower, node.slice.upper
            if not (
                isinstance(lower, ast.Subscript)
                and isinstance(upper, ast.Subscript)
            ):
                continue
            base_l = expr_key(lower.value)
            base_u = expr_key(upper.value)
            if base_l is not None and base_l == base_u:
                out.append((base_l, node))
        return out

    @staticmethod
    def _guarded_bases(fn) -> Set[str]:
        """Leaf names of offset arrays a guard statement references.

        A guard is an ``if``/``assert`` test, or a call to a helper
        whose name mentions check/validate/guard, that mentions the
        offsets array — the shapes the sanctioned validators take.
        """
        guarded: Set[str] = set()

        def leaf_names(node: ast.AST) -> Set[str]:
            names: Set[str] = set()
            for child in ast.walk(node):
                if isinstance(child, ast.Name):
                    names.add(child.id)
                elif isinstance(child, ast.Attribute):
                    names.add(child.attr)
            return names

        for node in ast.walk(fn):
            if isinstance(node, (ast.If, ast.Assert)):
                guarded.update(leaf_names(node.test))
            elif isinstance(node, ast.Call):
                name = expr_key(node.func)
                leaf = name.rsplit(".", 1)[-1].lower() if name else ""
                if any(tag in leaf for tag in ("check", "validate", "guard")):
                    for arg in node.args:
                        guarded.update(leaf_names(arg))
        return guarded
