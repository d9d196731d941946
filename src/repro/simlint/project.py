"""Whole-program analysis substrate: summaries, symbol table, call graph.

File-local AST rules cannot see a nondeterministic value returned from
a helper one module away or a counter fold delegated to an imported
helper.  This module gives
simlint a project view without giving up the incremental property:

* :func:`summarize_file` distills one parsed file into a small,
  JSON-serializable :class:`FileSummary` — imports, function table
  (resolved call targets, normalized write keys and a structural taint
  summary).  Summaries are pure functions of the file
  content, so the analysis cache can persist them keyed on the content
  hash and a warm run never re-parses an unchanged file.
* :class:`ProjectGraph` assembles the summaries of one lint run into a
  symbol table with re-export (alias) resolution, a cross-module call
  graph, per-module import closures (the invalidation unit for
  cross-file rules), and transitive write surfaces.
* :class:`WriteSurfaceGraph` collects the writes reachable from one
  class's ``run`` for SL204's counter-parity oracle, crediting writes
  made by *imported* helpers through the project graph.

Resolution is name-based and conservative: a call through a local
object (``cache.store.put()``) is not resolvable and simply drops off
the graph.  Rules built on top treat "unresolvable" as "no
evidence", never as a finding.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Method names that mutate their receiver in place.  Shared by the
#: write-key normalizer below, SL201 and the SoA cache rule — defined
#: here (a leaf module) so rule modules and the substrate can both
#: import it without a cycle.
MUTATING_METHODS = {
    "append", "appendleft", "extend", "extendleft", "add", "update",
    "clear", "pop", "popleft", "popitem", "remove", "discard", "insert",
    "setdefault", "sort", "reverse",
}

#: Bump when the FileSummary shape changes: cached summaries with a
#: different version are discarded, not misread.
#: 3: function summaries dropped the ``is_async`` flag.
SUMMARY_SCHEMA_VERSION = 3

#: Only names under this root participate in cross-module resolution.
PROJECT_ROOT_PACKAGE = "repro"


# ---------------------------------------------------------------------------
# summaries


@dataclass
class FunctionSummary:
    """One function/method, reduced to what cross-file rules consume."""

    name: str                      #: qualified within the module (Cls.meth)
    lineno: int
    calls: Tuple[str, ...]         #: resolved dotted call targets
    writes: Tuple[str, ...]        #: normalized state keys written
    taint_sources: Tuple[str, ...]         #: source labels reaching a return
    taint_return_params: Tuple[int, ...]   #: param indices reaching a return
    #: Callees whose return value reaches a return, with the caller
    #: param indices passed into that call (for param-flow closure).
    taint_return_calls: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "lineno": self.lineno,
            "calls": list(self.calls),
            "writes": list(self.writes),
            "taint_sources": list(self.taint_sources),
            "taint_return_params": list(self.taint_return_params),
            "taint_return_calls": [
                [callee, list(params)]
                for callee, params in self.taint_return_calls
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "FunctionSummary":
        return cls(
            name=str(payload["name"]),
            lineno=int(payload["lineno"]),
            calls=tuple(payload["calls"]),
            writes=tuple(payload["writes"]),
            taint_sources=tuple(payload["taint_sources"]),
            taint_return_params=tuple(payload["taint_return_params"]),
            taint_return_calls=tuple(
                (str(callee), tuple(int(p) for p in params))
                for callee, params in payload["taint_return_calls"]
            ),
        )


@dataclass
class FileSummary:
    """Everything the project graph needs to know about one file."""

    path: str
    module: Optional[str]
    sha: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "schema": SUMMARY_SCHEMA_VERSION,
            "path": self.path,
            "module": self.module,
            "sha": self.sha,
            "imports": dict(self.imports),
            "functions": {
                qual: fn.to_dict() for qual, fn in self.functions.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> Optional["FileSummary"]:
        if payload.get("schema") != SUMMARY_SCHEMA_VERSION:
            return None
        return cls(
            path=str(payload["path"]),
            module=payload["module"],
            sha=str(payload["sha"]),
            imports=dict(payload["imports"]),
            functions={
                qual: FunctionSummary.from_dict(fn)
                for qual, fn in payload["functions"].items()
            },
        )


def content_hash(source: str) -> str:
    """The per-file cache key: sha256 of the exact source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def summarize_file(
    tree: ast.Module,
    path: str,
    module: Optional[str],
    imports: Dict[str, str],
    source: str,
) -> FileSummary:
    """Distill one parsed file into its :class:`FileSummary`."""
    summary = FileSummary(
        path=path, module=module, sha=content_hash(source),
        imports=dict(imports),
    )
    local_defs = {
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for qual, node, cls_name in iter_functions(tree):
        summary.functions[qual] = _summarize_function(
            qual, node, module, imports, cls_name, local_defs
        )
    return summary


def iter_functions(
    tree: ast.Module,
) -> Iterable[Tuple[str, ast.AST, Optional[str]]]:
    """Top-level functions and class methods: (qualname, node, class).

    Nested (closure) functions are deliberately not summarized: they are
    not addressable across modules, and :class:`WriteSurfaceGraph`
    resolves them inside their own file where they matter.
    """
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt, None
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{stmt.name}.{item.name}", item, stmt.name


def own_statements(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def resolve_call_target(
    node: ast.Call,
    imports: Dict[str, str],
    module: Optional[str],
    cls_name: Optional[str],
    local_defs: Optional[Set[str]] = None,
) -> Optional[str]:
    """Dotted target of a call, made module-absolute where possible.

    ``self._tick()`` inside class C of module M → ``M.C._tick``;
    ``run_jobs()`` under ``from repro.runtime.executor import run_jobs``
    → ``repro.runtime.executor.run_jobs``; a call through a local object
    → ``None``.
    """
    func = node.func
    parts: List[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    root = func.id
    if root == "self" and cls_name is not None and module is not None:
        if len(parts) == 1:
            return f"{module}.{cls_name}.{parts[0]}"
        return None
    if root in imports:
        parts.append(imports[root])
    elif not parts and local_defs is not None and root in local_defs:
        return f"{module}.{root}" if module else root
    else:
        parts.append(root)
    return ".".join(reversed(parts))


def _summarize_function(
    qual: str,
    node: ast.AST,
    module: Optional[str],
    imports: Dict[str, str],
    cls_name: Optional[str],
    local_defs: Optional[Set[str]] = None,
) -> FunctionSummary:
    # Deferred import: taint's structural pass rides the same walk.
    from repro.simlint.taint import structural_taint

    calls: List[str] = []
    writes: Set[str] = set()
    for child in own_statements(node):
        writes.update(write_keys(child))
        if isinstance(child, ast.Call):
            target = resolve_call_target(
                child, imports, module, cls_name, local_defs
            )
            if target is not None:
                calls.append(target)
    sources, ret_params, ret_calls = structural_taint(
        node, imports, module, cls_name, local_defs
    )
    return FunctionSummary(
        name=qual,
        lineno=node.lineno,
        calls=tuple(sorted(set(calls))),
        writes=tuple(sorted(writes)),
        taint_sources=tuple(sorted(sources)),
        taint_return_params=tuple(sorted(ret_params)),
        taint_return_calls=tuple(sorted(ret_calls)),
    )


# ---------------------------------------------------------------------------
# write-key normalization (shared with SL204 and the vector rules)


def write_keys(node: ast.AST) -> List[str]:
    """Normalized state keys a node writes (empty for non-writes).

    ``warp.ready_time = x`` → ``warp.ready_time``;
    ``cursors[lane] = c`` → ``cursors``;
    ``resident.clear()`` / ``resident.remove(x)`` → ``resident``;
    plain local rebinding (``completion = end``) → the name itself, so
    loop bookkeeping locals participate in the parity check too.
    """
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        keys: List[str] = []
        for target in targets:
            keys.extend(target_keys(target))
        return keys
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATING_METHODS
    ):
        key = expr_key(node.func.value)
        return [key] if key is not None else []
    return []


def target_keys(target: ast.AST) -> List[str]:
    if isinstance(target, (ast.Tuple, ast.List)):
        keys: List[str] = []
        for element in target.elts:
            keys.extend(target_keys(element))
        return keys
    if isinstance(target, ast.Subscript):
        key = expr_key(target.value)
    else:
        key = expr_key(target)
    return [key] if key is not None else []


def expr_key(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = expr_key(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    if isinstance(node, ast.Subscript):
        return expr_key(node.value)
    return None


# ---------------------------------------------------------------------------
# the assembled project


class ProjectGraph:
    """Symbol table + call graph over the summaries of one lint run."""

    def __init__(self, summaries: Iterable[FileSummary]) -> None:
        self.files: Dict[str, FileSummary] = {}
        self.modules: Dict[str, FileSummary] = {}
        #: Fully-qualified function name → summary.
        self._functions: Dict[str, FunctionSummary] = {}
        #: Import alias seen *as* a module attribute → its dotted origin
        #: (``repro.simlint.lint_source`` → ``repro.simlint.engine.
        #: lint_source``); this is what makes re-exports resolvable.
        self._aliases: Dict[str, str] = {}
        for summary in summaries:
            self.files[summary.path] = summary
            if summary.module:
                self.modules[summary.module] = summary
        for summary in self.modules.values():
            module = summary.module
            for qual, fn in summary.functions.items():
                self._functions[f"{module}.{qual}"] = fn
            for alias, origin in summary.imports.items():
                if origin.startswith(PROJECT_ROOT_PACKAGE):
                    self._aliases[f"{module}.{alias}"] = origin
        self._deps: Dict[str, Tuple[str, ...]] = {}
        self._closure_fp: Dict[str, str] = {}
        self._taint: Optional[Dict] = None

    # -- symbols --------------------------------------------------------

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Canonical function name for ``dotted``, through alias chains.

        Follows re-exports (``from repro.a import f`` then ``from
        repro.pkg_a_wrapper import f``) with a visited set so import
        cycles terminate.  Returns ``None`` for anything that does not
        land on a summarized function.
        """
        seen: Set[str] = set()
        while dotted is not None and dotted not in seen:
            if dotted in self._functions:
                return dotted
            seen.add(dotted)
            dotted = self._aliases.get(dotted)
        return None

    def function(self, dotted: Optional[str]) -> Optional[FunctionSummary]:
        canonical = self.resolve(dotted)
        return self._functions.get(canonical) if canonical else None

    def functions(self) -> Dict[str, FunctionSummary]:
        return dict(self._functions)

    # -- dependencies ---------------------------------------------------

    def module_deps(self, module: str) -> Tuple[str, ...]:
        """Project modules ``module`` imports (direct edges only)."""
        cached = self._deps.get(module)
        if cached is not None:
            return cached
        summary = self.modules.get(module)
        deps: Set[str] = set()
        if summary is not None:
            for origin in summary.imports.values():
                dep = self._owning_module(origin)
                if dep is not None and dep != module:
                    deps.add(dep)
        out = tuple(sorted(deps))
        self._deps[module] = out
        return out

    def _owning_module(self, dotted: str) -> Optional[str]:
        """Longest known-module prefix of a dotted import origin."""
        if not dotted.startswith(PROJECT_ROOT_PACKAGE):
            return None
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    def import_closure(self, module: str) -> Tuple[str, ...]:
        """``module`` plus every project module reachable via imports."""
        closure: Set[str] = set()
        frontier = [module]
        while frontier:
            current = frontier.pop()
            if current in closure or current not in self.modules:
                continue
            closure.add(current)
            frontier.extend(self.module_deps(current))
        return tuple(sorted(closure))

    def closure_fingerprint(self, path: str) -> str:
        """Invalidation key for cross-file findings of one file.

        The sha256 of the (module, content-sha) pairs of the file's
        import closure: editing any module a file can see — directly or
        transitively — invalidates its cached cross-file findings, while
        edits elsewhere in the tree leave them warm.
        """
        summary = self.files.get(path)
        if summary is None:
            return ""
        if summary.module is None:
            return summary.sha
        cached = self._closure_fp.get(path)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        for module in self.import_closure(summary.module):
            entry = self.modules[module]
            digest.update(f"{module}={entry.sha}\n".encode("utf-8"))
        fp = digest.hexdigest()
        self._closure_fp[path] = fp
        return fp

    # -- call graph -----------------------------------------------------

    def reachable(self, roots: Sequence[str]) -> Set[str]:
        """Canonical functions reachable from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        frontier = [r for r in (self.resolve(root) for root in roots) if r]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            fn = self._functions[current]
            for call in fn.calls:
                target = self.resolve(call)
                if target is not None and target not in seen:
                    frontier.append(target)
        return seen

    def reachable_writes(self, root: str) -> Set[str]:
        """Union of write keys over every function reachable from root."""
        writes: Set[str] = set()
        for name in self.reachable([root]):
            writes.update(self._functions[name].writes)
        return writes

    # -- taint ----------------------------------------------------------

    def taint(self) -> Dict[str, Dict]:
        """Fixpoint inter-procedural taint summaries, computed lazily.

        Maps canonical function name → ``{"labels": set, "params": set}``
        — the source labels its return value can carry, and the
        parameter indices whose taint flows through to the return.
        """
        if self._taint is None:
            from repro.simlint.taint import propagate_taint

            self._taint = propagate_taint(self)
        return self._taint


class WriteSurfaceGraph:
    """Write-surface collector over a class + module call graph.

    Follows methods of the same class (``self._tick()``), helper
    closures defined inside ``run`` and module-level functions.  With a
    :class:`ProjectGraph` attached it also credits the transitive writes
    of imported project functions, spelled in the callee's own
    namespace.
    """

    def __init__(
        self,
        tree: ast.Module,
        cls: ast.ClassDef,
        run: ast.FunctionDef,
        project: Optional[ProjectGraph] = None,
        module: Optional[str] = None,
        imports: Optional[Dict[str, str]] = None,
    ) -> None:
        self._methods: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
        }
        self._module_funcs: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef)
        }
        # Helper closures defined inside run() (e.g. admit()).
        self._local_funcs: Dict[str, ast.FunctionDef] = {
            node.name: node
            for node in ast.walk(run)
            if isinstance(node, ast.FunctionDef) and node is not run
        }
        self._project = project
        self._module = module
        self._imports = imports or {}

    def reachable_writes(self, stmts: List[ast.stmt]) -> Set[str]:
        """State keys written by ``stmts`` and every callee they reach."""
        writes: Set[str] = set()
        visited: Set[str] = set()
        self._collect(stmts, writes, visited)
        return writes

    def _collect(
        self, stmts: List[ast.stmt], writes: Set[str], visited: Set[str]
    ) -> None:
        for stmt in stmts:
            for node in ast.walk(stmt):
                writes.update(write_keys(node))
                callee = self._callee(node)
                if callee is not None and callee[0] not in visited:
                    name, fn = callee
                    visited.add(name)
                    self._collect(fn.body, writes, visited)
                elif callee is None:
                    writes.update(self._imported_writes(node, visited))

    def _imported_writes(
        self, node: ast.AST, visited: Set[str]
    ) -> Set[str]:
        """Transitive writes of an imported project callee, if known."""
        if self._project is None or not isinstance(node, ast.Call):
            return set()
        dotted = resolve_call_target(
            node, self._imports, self._module, None
        )
        canonical = self._project.resolve(dotted)
        if canonical is None or canonical in visited:
            return set()
        visited.add(canonical)
        return self._project.reachable_writes(canonical)

    def _callee(
        self, node: ast.AST
    ) -> Optional[Tuple[str, ast.FunctionDef]]:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and func.attr in self._methods
        ):
            return f"self.{func.attr}", self._methods[func.attr]
        if isinstance(func, ast.Name):
            if func.id in self._local_funcs:
                return func.id, self._local_funcs[func.id]
            if func.id in self._module_funcs:
                return func.id, self._module_funcs[func.id]
        return None
