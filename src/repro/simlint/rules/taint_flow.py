"""SL110 — whole-program determinism taint flow.

The SL1xx call-site rules reject *direct* uses of nondeterministic APIs
inside timing-critical packages.  SL110 closes the flow gap: a
wall-clock read, process-global RNG draw, ``id()``/``hash()`` value or
hash-ordered materialization that happens *anywhere* — including
through helper returns in other modules — must not reach the state the
reproduction contract declares pure: ``Counters`` fields,
``SimulationJob`` content keys / cache salts (the
``LintConfig.taint_sinks`` function names), or scheduler ordering
decisions in the timing-critical packages.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.simlint.model import Finding
from repro.simlint.project import (
    ProjectGraph,
    expr_key,
    iter_functions,
    summarize_file,
)
from repro.simlint.registry import Rule, register
from repro.simlint.taint import TaintAnalyzer


def _counter_key(target: ast.AST) -> Optional[str]:
    """Dotted key when ``target`` stores into a Counters field."""
    if not isinstance(target, ast.Attribute):
        return None
    key = expr_key(target)
    if key is None:
        return None
    parts = key.split(".")
    return key if "counters" in parts[:-1] or "_counters" in parts[:-1] else None


def _labels(taint) -> str:
    return ", ".join(sorted(taint.labels))


@register
class TaintFlowRule(Rule):
    id = "SL110"
    title = "nondeterministic value flows into reproducibility-bearing state"
    scope = "repro"
    category = "determinism"
    rationale = (
        "Counters, job content keys and scheduler ordering must be pure "
        "functions of (scene, config, seed) — that is the whole "
        "bit-identity contract.  Banning direct clock/RNG calls in the "
        "timing packages (SL101-104) does not stop a tainted value from "
        "*flowing* there through a local, a helper return, or an import "
        "boundary: `salt = make_token()` is one hop away from "
        "`os.urandom`.  SL110 tracks source labels through assignments, "
        "calls and cross-module function summaries, and fires where a "
        "labelled value reaches a counter store, a configured key/salt "
        "sink function's return, or a sorted()/min()/max() ordering "
        "decision in the timing-critical packages."
    )

    def check(self, ctx) -> Iterator[Finding]:
        project = ctx.project
        if project is None:
            # lint_source / single-file runs: a mini-graph of this file
            # alone still resolves same-file helper flows.
            project = ProjectGraph([
                summarize_file(ctx.tree, ctx.module, ctx.imports)
            ])
        summaries = project.taint()

        def lookup(dotted: Optional[str]) -> Optional[Dict]:
            canonical = project.resolve(dotted)
            return summaries.get(canonical) if canonical else None

        sinks = set(ctx.config.taint_sinks)
        order_scoped = ctx.module is not None and any(
            ctx.module == pkg or ctx.module.startswith(pkg + ".")
            for pkg in ctx.config.timing_critical
        )

        local_defs = {
            stmt.name
            for stmt in ctx.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        findings: List[Finding] = []
        for qual, fn, cls_name in iter_functions(ctx.tree):
            leaf = qual.rsplit(".", 1)[-1]

            def on_store(target, value, stmt):
                key = _counter_key(target)
                if key is not None and value.labels:
                    findings.append(ctx.finding(
                        self, stmt,
                        f"counter store {key} is tainted by "
                        f"{_labels(value)} — counters must be a pure "
                        f"function of (scene, config, seed)",
                    ))

            def on_return(stmt, taint):
                if leaf in sinks and taint.labels:
                    findings.append(ctx.finding(
                        self, stmt,
                        f"{leaf}() returns a value tainted by "
                        f"{_labels(taint)} — key/salt sinks must be "
                        f"derived only from declared inputs",
                    ))

            def on_order(node, taint):
                if order_scoped and taint.labels:
                    findings.append(ctx.finding(
                        self, node,
                        f"ordering decision keyed on a value tainted "
                        f"by {_labels(taint)} — scheduler order must "
                        f"not depend on entropy",
                    ))

            TaintAnalyzer(
                fn,
                ctx.imports,
                module=ctx.module,
                cls_name=cls_name,
                lookup=lookup,
                on_store=on_store,
                on_return=on_return,
                on_order=on_order,
                local_defs=local_defs,
            ).run()
        yield from findings
