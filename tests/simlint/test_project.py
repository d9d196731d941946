"""The whole-program substrate: summaries, symbol table, call graph.

Covers the resolution machinery the cross-file rules stand on: alias
chains (re-exports), import cycles, decorated definitions, and
transitive write surfaces.
"""

import textwrap

from repro.simlint.engine import FileContext
from repro.simlint.project import ProjectGraph, summarize_file


def summarize(source, path, module):
    source = textwrap.dedent(source)
    ctx = FileContext(path, source, module=module)
    return summarize_file(ctx.tree, module, ctx.imports)


def graph_of(**modules):
    """ProjectGraph from {dotted_module: source} keyword pairs."""
    summaries = []
    for module, source in modules.items():
        path = "src/" + module.replace(".", "/") + ".py"
        summaries.append(summarize(source, path, module))
    return ProjectGraph(summaries)


# ---------------------------------------------------------------------------
# summaries


def test_function_table_records_async_and_methods():
    summary = summarize(
        """
        def helper():
            return 1

        class Runner:
            def step(self):
                return helper()

            async def poll(self):
                return 2
        """,
        "src/repro/m.py", "repro.m",
    )
    assert set(summary.functions) == {"helper", "Runner.step", "Runner.poll"}


def test_decorated_defs_are_summarized():
    summary = summarize(
        """
        import functools

        @functools.lru_cache(maxsize=None)
        def cached():
            return 1

        class Service:
            @property
            def name(self):
                return "s"
        """,
        "src/repro/m.py", "repro.m",
    )
    assert set(summary.functions) == {"cached", "Service.name"}


def test_calls_resolve_through_imports_self_and_local_defs():
    summary = summarize(
        """
        from repro.a import spawn

        def helper():
            return 1

        def entry():
            spawn()
            return helper()

        class C:
            def step(self):
                self._tick()
        """,
        "src/repro/m.py", "repro.m",
    )
    assert "repro.a.spawn" in summary.functions["entry"].calls
    assert "repro.m.helper" in summary.functions["entry"].calls
    assert summary.functions["C.step"].calls == ("repro.m.C._tick",)


def test_write_keys_are_normalized():
    summary = summarize(
        """
        def mutate(warp, cursors, resident, lane):
            warp.ready_time = 3
            cursors[lane] = 0
            resident.clear()
        """,
        "src/repro/m.py", "repro.m",
    )
    assert summary.functions["mutate"].writes == (
        "cursors", "resident", "warp.ready_time",
    )


# ---------------------------------------------------------------------------
# symbol resolution


def test_resolve_follows_reexport_chains():
    graph = graph_of(**{
        "repro.a": "def f():\n    return 1\n",
        "repro.b": "from repro.a import f\n",
        "repro.c": "from repro.b import f as g\n",
    })
    assert graph.resolve("repro.c.g") == "repro.a.f"
    assert graph.resolve("repro.b.f") == "repro.a.f"
    assert graph.resolve("repro.a.f") == "repro.a.f"


def test_resolve_terminates_on_alias_cycles():
    graph = graph_of(**{
        "repro.x": "from repro.y import f\n",
        "repro.y": "from repro.x import f\n",
    })
    assert graph.resolve("repro.x.f") is None
    assert graph.resolve("repro.unknown.g") is None


# ---------------------------------------------------------------------------
# call graph reachability


def test_reachable_writes_cross_module():
    graph = graph_of(**{
        "repro.a": (
            "from repro.b import fold\n"
            "\n"
            "def run(counters):\n"
            "    fold(counters)\n"
        ),
        "repro.b": (
            "def fold(counters):\n"
            "    counters.box_tests = 1\n"
        ),
    })
    assert "counters.box_tests" in graph.reachable_writes("repro.a.run")


def test_reachable_terminates_on_call_cycles():
    graph = graph_of(**{
        "repro.a": (
            "from repro.b import pong\n"
            "\n"
            "def ping():\n"
            "    return pong()\n"
        ),
        "repro.b": (
            "from repro.a import ping\n"
            "\n"
            "def pong():\n"
            "    return ping()\n"
        ),
    })
    assert graph.reachable(["repro.a.ping"]) == {"repro.a.ping", "repro.b.pong"}
