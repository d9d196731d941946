"""The determinism taint engine: sources, flows, and the fixpoint.

Exercises :func:`classify_source`, the per-function abstract
interpretation (:class:`TaintAnalyzer`), and the project-wide
propagation (:func:`propagate_taint`) — including the loop-carried
two-pass convergence and call-cycle termination SL110 relies on.
"""

import ast
import textwrap

from repro.simlint.engine import FileContext
from repro.simlint.project import ProjectGraph, expr_key, summarize_file
from repro.simlint.taint import (
    LABEL_CLOCK,
    LABEL_HASH,
    LABEL_ID,
    LABEL_OS_ENTROPY,
    LABEL_RNG,
    LABEL_SET_ORDER,
    TaintAnalyzer,
    classify_source,
    structural_taint,
)


def analyzer_for(source, module="repro.m", **hooks):
    source = textwrap.dedent(source)
    ctx = FileContext("src/repro/m.py", source, module=module)
    fn = next(
        stmt for stmt in ctx.tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    local_defs = {
        stmt.name
        for stmt in ctx.tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return TaintAnalyzer(
        fn, ctx.imports, module=module, local_defs=local_defs, **hooks
    )


def graph_of(**modules):
    summaries = []
    for module, source in modules.items():
        source = textwrap.dedent(source)
        path = "src/" + module.replace(".", "/") + ".py"
        ctx = FileContext(path, source, module=module)
        summaries.append(summarize_file(ctx.tree, module, ctx.imports))
    return ProjectGraph(summaries)


# ---------------------------------------------------------------------------
# source classification


def test_classify_source_labels():
    assert classify_source("time.time") == LABEL_CLOCK
    assert classify_source("time.perf_counter") == LABEL_CLOCK
    assert classify_source("datetime.datetime.now") == LABEL_CLOCK
    assert classify_source("random.random") == LABEL_RNG
    assert classify_source("numpy.random.rand") == LABEL_RNG
    assert classify_source("os.urandom") == LABEL_OS_ENTROPY
    assert classify_source("secrets.token_hex") == LABEL_OS_ENTROPY
    assert classify_source("id") == LABEL_ID
    assert classify_source("hash") == LABEL_HASH


def test_classify_source_leaves_seeded_and_pure_calls_clean():
    assert classify_source("random.Random") is None
    assert classify_source("numpy.random.default_rng") is None
    assert classify_source("math.floor") is None
    assert classify_source(None) is None


# ---------------------------------------------------------------------------
# single-function flows


def test_taint_flows_through_locals_and_derivations():
    stores = []
    analyzer = analyzer_for(
        """
        import time

        def f(counters):
            t = time.time()
            label = f"run-{t}"
            counters.box_tests = label
        """,
        on_store=lambda target, value, stmt: stores.append(
            (expr_key(target), frozenset(value.labels))
        ),
    )
    analyzer.run()
    assert ("counters.box_tests", frozenset({LABEL_CLOCK})) in stores


def test_loop_carried_taint_converges_on_the_second_pass():
    analyzer = analyzer_for(
        """
        import time

        def f():
            y = 0
            for _ in range(3):
                y = x
                x = time.time()
            return y
        """
    )
    analyzer.run()
    # `x` is textually bound after its use; the seeding pass makes the
    # emitting pass see the loop-carried value.
    assert LABEL_CLOCK in analyzer.return_taint.labels


def test_parameters_flow_to_returns_as_pass_through():
    analyzer = analyzer_for(
        """
        def f(scene, seed):
            return seed
        """
    )
    analyzer.run()
    assert analyzer.return_taint.params == {1}
    assert not analyzer.return_taint.labels


def test_method_calls_carry_their_receivers_taint():
    analyzer = analyzer_for(
        """
        import hashlib
        import json
        import time

        def f(fields):
            blob = json.dumps({"at": time.time(), "fields": fields})
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()
        """
    )
    analyzer.run()
    # A digest of a tainted blob is tainted, and so passes its input on.
    assert analyzer.return_taint.labels == {LABEL_CLOCK}
    assert analyzer.return_taint.params == {0}


def test_materializing_a_set_carries_hash_order():
    analyzer = analyzer_for(
        """
        def f(values):
            return list({v for v in values})
        """
    )
    analyzer.run()
    assert LABEL_SET_ORDER in analyzer.return_taint.labels


def test_sorting_a_tainted_sequence_reports_an_ordering_event():
    events = []
    analyzer = analyzer_for(
        """
        import time

        def f(stamps):
            noisy = [time.time() for _ in stamps]
            return sorted(noisy)
        """,
        on_order=lambda node, taint: events.append(frozenset(taint.labels)),
    )
    analyzer.run()
    assert frozenset({LABEL_CLOCK}) in events


def test_lookup_pulls_taint_through_same_module_helpers():
    stores = []
    summaries = {"repro.m.stamp": {"labels": {LABEL_CLOCK}, "params": ()}}
    analyzer = analyzer_for(
        """
        def f(counters):
            counters.ticks = stamp()

        def stamp():
            return 0.0
        """,
        lookup=lambda dotted: summaries.get(dotted),
        on_store=lambda target, value, stmt: stores.append(
            (expr_key(target), frozenset(value.labels))
        ),
    )
    analyzer.run()
    assert ("counters.ticks", frozenset({LABEL_CLOCK})) in stores


def test_structural_taint_reports_call_edges():
    source = textwrap.dedent(
        """
        from repro.a import derive

        def f(seed):
            return derive(seed)
        """
    )
    ctx = FileContext("src/repro/m.py", source, module="repro.m")
    fn = ctx.tree.body[1]
    labels, params, calls = structural_taint(fn, ctx.imports, "repro.m", None)
    assert labels == set()
    assert calls == {("repro.a.derive", (0,))}


# ---------------------------------------------------------------------------
# project-wide fixpoint


def test_propagate_taint_reaches_fixpoint_over_call_cycles():
    graph = graph_of(**{
        "repro.a": """
            from repro.b import pong

            def ping(depth):
                return pong(depth)
        """,
        "repro.b": """
            import time
            from repro.a import ping

            def pong(depth):
                if depth:
                    return ping(depth - 1)
                return time.time()
        """,
    })
    taint = graph.taint()
    assert LABEL_CLOCK in taint["repro.b.pong"]["labels"]
    # The cycle closes: ping's return is pong's return is ping's...
    assert LABEL_CLOCK in taint["repro.a.ping"]["labels"]


def test_propagate_taint_closes_parameter_pass_through():
    graph = graph_of(**{
        "repro.a": """
            from repro.b import inner

            def outer(token):
                return inner(token)
        """,
        "repro.b": """
            def inner(value):
                return value
        """,
    })
    taint = graph.taint()
    assert taint["repro.b.inner"]["params"] == {0}
    assert taint["repro.a.outer"]["params"] == {0}


def test_propagate_taint_keeps_clean_functions_clean():
    graph = graph_of(**{
        "repro.a": """
            def pure(scene, seed):
                return (scene, seed)
        """,
    })
    taint = graph.taint()
    assert taint["repro.a.pure"]["labels"] == set()
