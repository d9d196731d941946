"""Lint configuration, driven by ``[tool.simlint]`` in pyproject.toml.

Keys (all optional — the defaults below describe this repository):

``baseline``
    Path of the committed baseline file, relative to the pyproject.
``exclude``
    Path prefixes / glob patterns never linted (rule fixtures live here).
``timing-critical``
    Packages whose code runs under the simulated clock; ``scope="timing"``
    rules only fire inside these.
``singletons``
    Module-level singleton names whose mutation SL201 flags, in addition
    to the ALL_CAPS naming convention.
``counter-owners``
    Packages allowed to write ``Counters`` fields (SL203).
``print-allowed``
    Modules where ``print()`` is the job (SL402).
``vector-packages``
    Packages holding the numpy timing backend; the SL6xx vector family
    (``scope="vector"``) only fires inside these.
``soa-cache-writers``
    Function names sanctioned to mutate the ``_vector_cache`` SoA
    mirrors (SL602).
``taint-sinks``
    Function names whose return value is a content key / cache salt —
    the determinism taint engine (SL110) rejects tainted returns here.
``test-families``
    Rule categories that also run against ``tests/`` files.
``cache``
    Path of the incremental analysis cache file, relative to the
    pyproject; unset disables caching unless ``--cache`` is passed.
``disable``
    Rule ids turned off entirely.
``[tool.simlint.severity]``
    Per-rule severity overrides (``"error"`` / ``"warning"``).

Python < 3.11 has no ``tomllib``; a minimal TOML-subset reader covers
the string/list-of-strings shape these keys use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.simlint.model import Severity

DEFAULT_TIMING_CRITICAL = (
    "repro.gpu", "repro.stack", "repro.trace", "repro.traversal"
)
DEFAULT_SINGLETONS = (
    "EMPTY_ACTIVITY",
    "DEFAULT_PARAMS",
    "SCENE_NAMES",
    "FAULT_CLASSES",
    "RULES",
)
DEFAULT_COUNTER_OWNERS = ("repro.gpu",)
DEFAULT_PRINT_ALLOWED = ("repro.cli",)
DEFAULT_VECTOR_PACKAGES = ("repro.gpu.vector",)
DEFAULT_SOA_CACHE_WRITERS = ("trace_cache", "pack_trace", "warp_plan")
DEFAULT_TAINT_SINKS = (
    "key", "spec", "content_key", "cache_key", "salt", "phase_key",
)
DEFAULT_TEST_FAMILIES = ("determinism", "hygiene")


@dataclass
class LintConfig:
    """Resolved lint settings for one run."""

    baseline_path: Optional[Path] = None
    exclude: Tuple[str, ...] = ()
    timing_critical: Tuple[str, ...] = DEFAULT_TIMING_CRITICAL
    singletons: Tuple[str, ...] = DEFAULT_SINGLETONS
    counter_owners: Tuple[str, ...] = DEFAULT_COUNTER_OWNERS
    print_allowed: Tuple[str, ...] = DEFAULT_PRINT_ALLOWED
    vector_packages: Tuple[str, ...] = DEFAULT_VECTOR_PACKAGES
    soa_cache_writers: Tuple[str, ...] = DEFAULT_SOA_CACHE_WRITERS
    taint_sinks: Tuple[str, ...] = DEFAULT_TAINT_SINKS
    test_families: Tuple[str, ...] = DEFAULT_TEST_FAMILIES
    cache_path: Optional[Path] = None
    disabled: Tuple[str, ...] = ()
    severity: Dict[str, str] = field(default_factory=dict)

    def severity_for(self, rule) -> str:
        """The effective severity of ``rule`` under this config."""
        return self.severity.get(rule.id, rule.severity)


def load_config(pyproject: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.simlint]``.

    ``pyproject=None`` looks for ``pyproject.toml`` in the current
    working directory; a missing file or section yields the defaults.
    """
    path = Path(pyproject) if pyproject is not None else Path("pyproject.toml")
    if not path.exists():
        return LintConfig()
    table = _read_tool_table(path, "simlint")
    if not table:
        return LintConfig()
    config = LintConfig()
    baseline = table.get("baseline")
    if baseline:
        config.baseline_path = path.parent / str(baseline)
    config.exclude = _str_tuple(table, "exclude", config.exclude)
    config.timing_critical = _str_tuple(
        table, "timing-critical", config.timing_critical
    )
    config.singletons = _str_tuple(table, "singletons", config.singletons)
    config.counter_owners = _str_tuple(
        table, "counter-owners", config.counter_owners
    )
    config.print_allowed = _str_tuple(
        table, "print-allowed", config.print_allowed
    )
    config.vector_packages = _str_tuple(
        table, "vector-packages", config.vector_packages
    )
    config.soa_cache_writers = _str_tuple(
        table, "soa-cache-writers", config.soa_cache_writers
    )
    config.taint_sinks = _str_tuple(table, "taint-sinks", config.taint_sinks)
    config.test_families = _str_tuple(
        table, "test-families", config.test_families
    )
    cache = table.get("cache")
    if cache:
        config.cache_path = path.parent / str(cache)
    config.disabled = _str_tuple(table, "disable", config.disabled)
    severity = table.get("severity") or {}
    if not isinstance(severity, dict):
        raise ReproError("[tool.simlint.severity] must be a table")
    for rule_id, value in severity.items():
        if value not in Severity.ALL:
            raise ReproError(
                f"[tool.simlint.severity] {rule_id} = {value!r}: severity "
                f"must be one of {', '.join(Severity.ALL)}"
            )
        config.severity[str(rule_id)] = str(value)
    return config


def _str_tuple(table: dict, key: str, default: Tuple[str, ...]) -> Tuple[str, ...]:
    value = table.get(key)
    if value is None:
        return default
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and all(
        isinstance(item, str) for item in value
    ):
        return tuple(value)
    raise ReproError(f"[tool.simlint] {key} must be a string or list of strings")


def _read_tool_table(path: Path, tool: str) -> dict:
    """The ``[tool.<tool>]`` table of a pyproject, sub-tables included."""
    text = path.read_text()
    try:
        import tomllib  # Python >= 3.11
    except ImportError:
        return _parse_toml_subset(text, f"tool.{tool}")
    data = tomllib.loads(text)
    return data.get("tool", {}).get(tool, {}) or {}


def _parse_toml_subset(text: str, section: str) -> dict:
    """Minimal TOML reader for ``[section]`` and its direct sub-tables.

    Supports ``key = "string"`` and ``key = [list, of, strings]``
    (multi-line lists included) — the only shapes ``[tool.simlint]``
    uses.  Anything fancier should run on Python 3.11+ where the real
    ``tomllib`` takes over.
    """
    table: dict = {}
    current: Optional[dict] = None
    pending_key: Optional[str] = None
    pending_items: List[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = re.match(r"^\[([^\]]+)\]$", line)
        if header:
            name = header.group(1).strip()
            pending_key = None
            if name == section:
                current = table
            elif name.startswith(section + "."):
                sub = name[len(section) + 1:]
                current = table.setdefault(sub, {})
            else:
                current = None
            continue
        if current is None:
            continue
        if pending_key is not None:
            pending_items.extend(_list_items(line))
            if line.rstrip().endswith("]"):
                current[pending_key] = pending_items
                pending_key, pending_items = None, []
            continue
        match = re.match(r"^([\w.-]+)\s*=\s*(.+)$", line)
        if not match:
            continue
        key, value = match.group(1), match.group(2).strip()
        if value.startswith("["):
            items = _list_items(value[1:])
            if value.rstrip().endswith("]"):
                current[key] = items
            else:
                pending_key, pending_items = key, items
        elif value and value[0] in "\"'":
            current[key] = value[1:-1] if value[-1] == value[0] else value[1:]
        else:
            current[key] = value
    return table


def _list_items(fragment: str) -> List[str]:
    """Quoted strings from one line of a (possibly multi-line) TOML list."""
    return [a or b for a, b in re.findall(r"\"([^\"]*)\"|'([^']*)'", fragment)]
