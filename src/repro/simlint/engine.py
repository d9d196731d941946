"""The lint engine: file discovery, AST contexts, and the run driver.

One :class:`FileContext` is built per source file.  It owns the parsed
tree, a parent map (rules reason about how an expression is *consumed*),
an import-alias map (so ``np.random.default_rng`` resolves through
``import numpy as np``), and the inline-suppression table.  Rules see
only the context; everything path- and config-shaped is resolved here.

:func:`lint_paths` is one cold pass: it parses every file, builds one
:class:`~repro.simlint.project.ProjectGraph` from their summaries, and
runs every registered rule on every file.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.errors import ReproError
from repro.simlint.config import LintConfig
from repro.simlint.model import Finding
from repro.simlint.project import ProjectGraph, summarize_file

#: ``# simlint: disable=SL101,SL204`` (line) / ``disable-file=`` (file).
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable(?P<file>-file)?\s*=\s*"
    r"(?P<ids>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


class FileContext:
    """Everything a rule needs to know about one source file."""

    def __init__(
        self,
        path: str,
        source: str,
        config: Optional[LintConfig] = None,
        module: Optional[str] = None,
    ) -> None:
        self.path = path
        self.config = config or LintConfig()
        self.module = module if module is not None else module_name(path)
        parts = Path(path).parts
        #: Files outside the package still get scoped rule families:
        #: tests (determinism + hygiene) and tools (everything
        #: repro-scoped) — see :meth:`Rule.applies_to`.
        self.is_test = "tests" in parts or Path(path).name.startswith("test_")
        self.is_tool = "tools" in parts
        #: The whole-program view, attached by :func:`lint_paths`;
        #: ``None`` for single-file runs (``lint_source``), in which
        #: case cross-file rules degrade to file-local reasoning.
        self.project = None
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self.imports = _import_map(self.tree)
        self.line_suppressions: Dict[int, Set[str]] = {}
        self.file_suppressions: Set[str] = set()
        self._scan_suppressions()

    # -- suppressions ---------------------------------------------------

    def _scan_suppressions(self) -> None:
        for lineno, line in enumerate(self.lines, start=1):
            if "simlint" not in line:
                continue
            for match in _SUPPRESS_RE.finditer(line):
                ids = {part.strip() for part in match.group("ids").split(",")}
                if match.group("file"):
                    self.file_suppressions |= ids
                    continue
                self.line_suppressions.setdefault(lineno, set()).update(ids)
                if line.strip().startswith("#"):
                    # A comment-only suppression covers the next code line.
                    target = self._next_code_line(lineno)
                    if target is not None:
                        self.line_suppressions.setdefault(
                            target, set()
                        ).update(ids)

    def _next_code_line(self, after: int) -> Optional[int]:
        for lineno in range(after + 1, len(self.lines) + 1):
            stripped = self.lines[lineno - 1].strip()
            if stripped and not stripped.startswith("#"):
                return lineno
        return None

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Is ``rule_id`` silenced at ``line`` of this file?"""
        if rule_id in self.file_suppressions:
            return True
        return rule_id in self.line_suppressions.get(line, set())

    # -- rule helpers ---------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(id(node))

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of a Name/Attribute chain through the import map.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` under ``import numpy as np``; a
        chain rooted in a local variable resolves to its literal dotted
        spelling, and anything non-name-shaped to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def finding(self, rule, node: ast.AST, message: str) -> Finding:
        """A finding of ``rule`` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        in_range = 0 < line <= len(self.lines)
        return Finding(
            rule=rule.id,
            path=self.path,
            line=line,
            col=col + 1,
            message=message,
            text=self.lines[line - 1].strip() if in_range else "",
        )


def module_name(path: str) -> Optional[str]:
    """Dotted module for a path under a ``repro`` package root, else None.

    ``src/repro/gpu/rt_unit.py`` → ``repro.gpu.rt_unit``; paths with no
    ``repro`` component (tests, tools, fixtures) resolve to ``None`` so
    package-scoped rules skip them.
    """
    parts = Path(path).parts
    if "repro" not in parts:
        return None
    start = parts.index("repro")
    tail = list(parts[start:])
    tail[-1] = Path(tail[-1]).stem
    if tail[-1] == "__init__":
        tail.pop()
    return ".".join(tail)


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Local alias → fully dotted origin, from every import statement."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    #: Files that failed to parse, as (path, message) pairs.
    broken: List[tuple] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """Stable exit code: 0 clean, 1 findings, 2 broken input."""
        if self.broken:
            return 2
        return 1 if self.findings else 0


def _collect(ctx: FileContext):
    """All findings of every rule for one context: (kept, suppressed)."""
    from repro.simlint.registry import all_rules

    kept: List[Finding] = []
    suppressed = 0
    for rule in all_rules():
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if ctx.suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept, suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
    module: Optional[str] = None,
) -> List[Finding]:
    """Lint one source string; the workhorse behind tests and fixtures."""
    ctx = FileContext(path, source, config=config or LintConfig(),
                      module=module)
    findings, _ = _collect(ctx)
    return findings


def iter_python_files(
    paths: Sequence[str], config: LintConfig
) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, minus the config excludes."""
    seen: Set[Path] = set()
    for entry in paths:
        root = Path(entry)
        if not root.exists():
            raise ReproError(f"lint target {entry!r} does not exist")
        candidates = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in candidates:
            if path.suffix != ".py" or path in seen:
                continue
            seen.add(path)
            if _excluded(path, config):
                continue
            yield path


def _excluded(path: Path, config: LintConfig) -> bool:
    text = path.as_posix()
    for pattern in config.exclude:
        if fnmatch.fnmatch(text, pattern) or f"/{pattern.strip('/')}/" in f"/{text}/":
            return True
    return False


def lint_paths(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> LintReport:
    """Lint files/trees: parse all, build the project graph, run rules."""
    config = config or LintConfig()
    report = LintReport()
    contexts: List[FileContext] = []
    for path in iter_python_files(paths, config):
        try:
            contexts.append(
                FileContext(path.as_posix(), path.read_text(), config=config)
            )
        except SyntaxError as error:
            report.broken.append(
                (path.as_posix(), f"line {error.lineno}: {error.msg}")
            )
    graph = ProjectGraph(
        summarize_file(ctx.tree, ctx.module, ctx.imports)
        for ctx in contexts
    )
    for ctx in contexts:
        ctx.project = graph
        findings, suppressed = _collect(ctx)
        report.findings.extend(findings)
        report.suppressed += suppressed
    report.files = len(contexts)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
