"""SL204 — counter parity between a timing backend and its oracle.

A timing backend that reimplements the RT unit (the vector core's
:class:`~repro.gpu.vector.unit.VectorRTUnit`) must maintain exactly the
counters the stepped oracle does.  It *declares its oracle* with a
class-level

    COUNTER_PARITY_ORACLE = "../counters.py"

naming the file whose counter dataclass defines the complete counter
surface, and the rule then requires every declared field (minus an
optional ``COUNTER_PARITY_EXEMPT`` tuple) to be written somewhere in the
call graph reachable from the class's ``run``: methods of the same
class, helper closures defined inside ``run``, module-level functions
and, through the project graph, imported project helpers.  A counter
the backend never touches is exactly the kind of silent divergence the
runtime equivalence tests only catch when a workload happens to
exercise it — here it is a static finding the moment the write is
dropped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

from repro.simlint.model import Finding
from repro.simlint.project import WriteSurfaceGraph
from repro.simlint.registry import Rule, register


@register
class CounterParityRule(Rule):
    id = "SL204"
    title = "timing backend leaves an oracle counter unwritten"
    severity = "error"
    scope = "timing"
    category = "bit-identity"
    # Coverage credits writes of *imported* project helpers through
    # ctx.project, so cached findings must invalidate when anything in
    # the import closure changes.
    cross_file = True
    rationale = (
        "A timing backend that reimplements the stepped RT unit must "
        "produce every counter the stepped oracle does.  Such a backend "
        "declares a COUNTER_PARITY_ORACLE: every counter field the "
        "oracle file defines must be written by code reachable from the "
        "backend's run(), so a counter the backend silently stops "
        "maintaining is a lint error rather than a workload-dependent "
        "test escape."
    )

    def check(self, ctx) -> Iterator[Finding]:
        """Classes with a ``run`` that declare a counter-parity oracle.

        A class opts in with a class-level ``COUNTER_PARITY_ORACLE =
        "<relative path>"`` declaration (the vector backend's
        :class:`~repro.gpu.vector.unit.VectorRTUnit`).  The oracle path
        resolves relative to the linted file, so the check follows the
        source tree wherever it is checked out.
        """
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            run = next(
                (
                    stmt for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "run"
                ),
                None,
            )
            oracle = _class_literal(node, "COUNTER_PARITY_ORACLE")
            if run is None or oracle is None:
                continue
            anchor, relpath = oracle
            fields = (
                _oracle_fields(Path(ctx.path).parent / relpath)
                if isinstance(relpath, str)
                else None
            )
            if fields is None:
                yield ctx.finding(
                    self, anchor,
                    f"class {node.name}: counter-parity oracle {relpath!r} "
                    f"could not be read or declares no counter fields",
                )
                continue
            exempt: Set[str] = set()
            declared = _class_literal(node, "COUNTER_PARITY_EXEMPT")
            if declared is not None and isinstance(declared[1], (tuple, list)):
                exempt = {
                    item for item in declared[1] if isinstance(item, str)
                }
            # The question is "does *anything* reachable from run()
            # maintain this counter", so writes delegated to imported
            # helpers count, and the callee-local key spelling is
            # exactly what _writes_counter matches.
            graph = WriteSurfaceGraph(
                ctx.tree, node, run,
                project=ctx.project, module=ctx.module, imports=ctx.imports,
            )
            writes = graph.reachable_writes(run.body)
            for field in fields:
                if field in exempt or _writes_counter(writes, field):
                    continue
                yield ctx.finding(
                    self, anchor,
                    f"class {node.name}: oracle {relpath} declares counter "
                    f"`{field}` but no code reachable from run() writes "
                    f"`counters.{field}` — the backends can silently "
                    f"diverge",
                )


def _class_literal(
    cls: ast.ClassDef, name: str
) -> Optional[Tuple[ast.AST, object]]:
    """A class-level ``name = <literal>`` declaration, if present.

    Returns the assignment node (the finding anchor) and the evaluated
    literal — or ``(node, None)`` when the value is not a pure literal,
    which callers treat the same as an unreadable declaration.
    """
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
        ):
            try:
                return stmt, ast.literal_eval(stmt.value)
            except ValueError:
                return stmt, None
    return None


def _oracle_fields(path: Path) -> Optional[List[str]]:
    """Counter field names the oracle file declares, or ``None``.

    The counter surface is the first class in the file carrying
    annotated field declarations (the ``Counters`` dataclass); a file
    that cannot be read or parsed, or that holds no such class, yields
    ``None`` so the caller reports the oracle itself as broken.
    """
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError, ValueError):
        return None
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = [
            stmt.target.id
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ]
        if fields:
            return fields
    return None


def _writes_counter(writes: Set[str], field: str) -> bool:
    """Does any write key store to ``counters.<field>``?

    Matches both the ``self.counters.x`` spelling and writes through a
    local alias (``counters = self.counters; counters.x += n``), which
    is how the hot paths spell it.
    """
    leaf = f"counters.{field}"
    return any(key == leaf or key.endswith("." + leaf) for key in writes)
