"""SL1xx — determinism rules.

The simulator's outputs must be a pure function of (scene, config,
seed).  These rules reject the classic ways a Python codebase loses that
property: reading the host clock, consulting unseeded entropy, iterating
collections whose order is not defined by the program, and keying
behavior on CPython object addresses.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.simlint.model import Finding
from repro.simlint.registry import Rule, register

#: Wall-clock reads: banned everywhere in the package (results must not
#: depend on *when* they were computed).  Result-store metadata is the
#: one documented exemption, carried as inline SL101 suppressions in
#: ``repro/runtime/store.py``.
WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Any host-time dependence at all — including interval clocks — is
#: banned inside the timing-critical packages: the simulated clock is
#: the only clock the models may consult.
HOST_CLOCK = {
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.thread_time",
    "time.sleep",
}

#: Entropy sources with process-global or OS-held state.
UNSEEDED_ENTROPY_PREFIXES = ("secrets.",)
UNSEEDED_ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}

#: Consumers that make iteration order irrelevant (commutative
#: reductions) or re-establish a defined order.
ORDER_SAFE_CONSUMERS = {
    "sum", "min", "max", "len", "any", "all", "sorted", "set", "frozenset",
}

#: Dict views hand iteration order straight to the caller.
_DICT_VIEWS = {"values", "keys", "items"}


@register
class WallClockRule(Rule):
    id = "SL101"
    title = "wall-clock read in simulator code"
    scope = "repro"
    category = "determinism"
    rationale = (
        "Simulation results must be a pure function of (scene, config, "
        "seed); reading the host clock makes output depend on when it ran. "
        "Inside the timing-critical packages (repro.gpu, repro.stack, "
        "repro.trace) even interval clocks (monotonic/perf_counter/sleep) "
        "are banned — the simulated clock is the only clock.  The result "
        "store's created-at metadata (repro/runtime/store.py) is the "
        "documented exemption, carried as inline suppressions."
    )

    def check(self, ctx) -> Iterator[Finding]:
        timing = _in_timing_package(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted is None:
                continue
            if dotted in WALL_CLOCK:
                yield ctx.finding(
                    self, node,
                    f"wall-clock read {dotted}() — simulator state may "
                    f"only depend on the simulated clock",
                )
            elif timing and dotted in HOST_CLOCK:
                yield ctx.finding(
                    self, node,
                    f"host-clock call {dotted}() inside a timing-critical "
                    f"package — use the simulated clock",
                )


@register
class UnseededRngRule(Rule):
    id = "SL102"
    title = "unseeded or process-global RNG"
    scope = "repro"
    category = "determinism"
    rationale = (
        "Every random draw must flow from an explicit seed so campaigns "
        "replay bit-identically and cache keys stay honest.  The module-"
        "level random.* API and legacy numpy.random.* API share hidden "
        "process-global state; random.Random()/default_rng() without a "
        "seed pull OS entropy.  Construct random.Random(seed) or "
        "numpy.random.default_rng(seed) and pass the generator down."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted is None:
                continue
            message = self._violation(dotted, node)
            if message:
                yield ctx.finding(self, node, message)

    @staticmethod
    def _violation(dotted: str, node: ast.Call) -> Optional[str]:
        seeded = bool(node.args) or bool(node.keywords)
        if dotted in ("random.Random", "random.SystemRandom"):
            if dotted.endswith("SystemRandom"):
                return "random.SystemRandom draws OS entropy — never reproducible"
            return None if seeded else "random.Random() without a seed"
        if dotted.startswith("random."):
            return (
                f"{dotted}() uses the process-global RNG — construct a "
                f"seeded random.Random and pass it explicitly"
            )
        if dotted in ("numpy.random.default_rng", "numpy.random.Generator"):
            return None if seeded else f"{dotted}() without a seed"
        if dotted.startswith("numpy.random."):
            return (
                f"legacy global-state API {dotted}() — use a seeded "
                f"numpy.random.default_rng(seed)"
            )
        if dotted in UNSEEDED_ENTROPY or dotted.startswith(
            UNSEEDED_ENTROPY_PREFIXES
        ):
            return f"{dotted}() draws OS entropy — never reproducible"
        return None


@register
class UnorderedIterationRule(Rule):
    id = "SL103"
    title = "iteration over a set or dict view in timing-critical code"
    scope = "timing"
    category = "determinism"
    rationale = (
        "Event streams and request chains are order-sensitive: iterating "
        "a set hands hash order (randomized for strings across processes) "
        "to the timing model, and a dict view hands over insertion order "
        "the caller may not control.  Commutative reductions (sum, min, "
        "max, len, any, all) and order-restoring consumers (sorted) are "
        "allowed; anything else must iterate an explicitly ordered "
        "sequence."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                label = self._unordered(ctx, node.iter)
                if label:
                    yield ctx.finding(
                        self, node.iter,
                        f"for-loop over {label} feeds order-sensitive "
                        f"code — iterate a list/tuple or wrap in sorted()",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                labels = [
                    self._unordered(ctx, gen.iter) for gen in node.generators
                ]
                flagged = [lbl for lbl in labels if lbl]
                if isinstance(node, (ast.SetComp, ast.DictComp)):
                    # A keyed/unordered *product* inherits a dict view's
                    # deterministic order harmlessly; only a set source
                    # (hash order) still leaks through it.
                    flagged = [lbl for lbl in flagged if "set" in lbl]
                if flagged and not self._reduction_consumer(ctx, node):
                    yield ctx.finding(
                        self, node,
                        f"comprehension over {flagged[0]} escapes into "
                        f"order-sensitive code — sort it or feed a "
                        f"commutative reduction",
                    )

    @staticmethod
    def _unordered(ctx, expr: ast.AST) -> Optional[str]:
        """A human label when ``expr`` has no program-defined order."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set"
        if isinstance(expr, ast.Call):
            dotted = ctx.resolve(expr.func)
            if dotted in ("set", "frozenset"):
                return f"{dotted}(...)"
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr in _DICT_VIEWS
                and not expr.args
            ):
                return f"a dict .{expr.func.attr}() view"
        return None

    @staticmethod
    def _reduction_consumer(ctx, node: ast.AST) -> bool:
        parent = ctx.parent(node)
        return (
            isinstance(parent, ast.Call)
            and node in parent.args
            and ctx.resolve(parent.func) in ORDER_SAFE_CONSUMERS
        )


@register
class IdentityOrderingRule(Rule):
    id = "SL104"
    title = "id()-based comparison, hashing or ordering of model objects"
    scope = "timing"
    category = "determinism"
    rationale = (
        "id() is a CPython heap address: it differs between runs, "
        "interpreters and workers, so sorting, hashing or keying on it "
        "injects address-space layout into the simulation.  Identity "
        "checks should use `is` / an explicit registry; ordering should "
        "key on stable model fields (lane, warp_id, address)."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and "id" not in ctx.imports
            ):
                yield ctx.finding(
                    self, node,
                    "id() leaks a per-process heap address into model "
                    "code — compare with `is` or key on stable fields",
                )


def _in_timing_package(ctx) -> bool:
    if ctx.module is None:
        return False
    return any(
        ctx.module == pkg or ctx.module.startswith(pkg + ".")
        for pkg in ctx.config.timing_critical
    )
