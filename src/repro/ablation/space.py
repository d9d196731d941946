"""Declarative SMS knob spaces: ``fixed`` kwargs vs ``ranges``.

A :class:`KnobSpace` declares a design-space exploration the way the
pykeen ablation pipeline declares one — a dictionary of pinned knob
values (``fixed``) plus a dictionary of per-knob value lists
(``ranges``) whose Cartesian product is the run matrix.  Every knob
name resolves through the :data:`KNOBS` registry, which maps the SMS
parameters the paper argues about (RB/SH sizes, skew, borrow/flush
bounds, scheduler occupancy, cache geometry, latencies, spill policy)
onto :class:`~repro.gpu.config.GPUConfig` fields, plus the traversal
``strategy`` pseudo-knob from :mod:`repro.traversal`.

Validation is two-tier: each value is checked against its knob's
declared domain here (unknown knob, empty range, duplicate values,
type/bounds errors all raise :class:`~repro.errors.AblationError` with
the knob name in the message), and each *combination* is checked by
constructing the actual ``GPUConfig`` during matrix generation (see
:mod:`repro.ablation.matrix`).

Range order is semantic: by convention a range runs *off -> on* (or
small -> large), and the importance analysis treats the first value of
every range as the knob's "removed" setting and the last as its "full"
setting (see :mod:`repro.ablation.analysis`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AblationError

#: GPUConfig defaults the knob registry validates against.
_BOOL = "bool"
_INT = "int"
_CHOICE = "choice"


@dataclass(frozen=True)
class Knob:
    """One explorable SMS parameter.

    ``kind`` is ``"bool"``, ``"int"`` or ``"choice"``; integers carry an
    inclusive ``low`` (and optionally ``high``) bound, choices carry the
    allowed value tuple.  ``nullable`` permits JSON ``null`` (used by
    ``rb_stack_entries`` where ``None`` selects RB_FULL).  ``config_field``
    is the ``GPUConfig`` attribute the knob sets; the ``strategy``
    pseudo-knob sets the job's traversal strategy instead and has
    ``config_field=None``.
    """

    name: str
    kind: str
    config_field: Optional[str] = None
    low: Optional[int] = None
    high: Optional[int] = None
    choices: Tuple = ()
    nullable: bool = False
    #: Sample pool for property-based tests and documentation examples.
    examples: Tuple = ()

    def validate(self, value) -> None:
        """Raise :class:`AblationError` unless ``value`` is in-domain."""
        if value is None:
            if not self.nullable:
                raise AblationError(
                    f"knob {self.name!r} does not accept null"
                )
            return
        if self.kind == _BOOL:
            if not isinstance(value, bool):
                raise AblationError(
                    f"knob {self.name!r} expects true/false, got {value!r}"
                )
            return
        if self.kind == _INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise AblationError(
                    f"knob {self.name!r} expects an integer, got {value!r}"
                )
            if self.low is not None and value < self.low:
                raise AblationError(
                    f"knob {self.name!r} must be >= {self.low}, got {value}"
                )
            if self.high is not None and value > self.high:
                raise AblationError(
                    f"knob {self.name!r} must be <= {self.high}, got {value}"
                )
            return
        if value not in self.choices:
            raise AblationError(
                f"knob {self.name!r} must be one of "
                f"{', '.join(repr(c) for c in self.choices)}, got {value!r}"
            )


def _strategy_choices() -> Tuple[str, ...]:
    from repro.traversal import available_strategies

    return tuple(available_strategies())


def _knob_list() -> List[Knob]:
    """The SMS knob registry (everything ``repro ablate`` can sweep)."""
    return [
        # Traversal-stack architecture.
        Knob("rb_stack_entries", _INT, "rb_stack_entries", low=1,
             nullable=True, examples=(2, 4, 8, 16, None)),
        Knob("sh_stack_entries", _INT, "sh_stack_entries", low=0,
             examples=(0, 4, 8, 16)),
        Knob("skewed_bank_access", _BOOL, "skewed_bank_access",
             examples=(False, True)),
        Knob("intra_warp_realloc", _BOOL, "intra_warp_realloc",
             examples=(False, True)),
        Knob("inter_warp_realloc", _BOOL, "inter_warp_realloc",
             examples=(False, True)),
        Knob("max_borrows", _INT, "max_borrows", low=1,
             examples=(1, 2, 4, 8)),
        Knob("max_flushes", _INT, "max_flushes", low=0,
             examples=(0, 1, 3, 6)),
        # Scheduler / occupancy.
        Knob("max_warps_per_rt_unit", _INT, "max_warps_per_rt_unit", low=1,
             examples=(1, 2, 4, 8)),
        # Cache geometry.
        Knob("unified_cache_bytes", _INT, "unified_cache_bytes", low=128,
             examples=(32 * 1024, 64 * 1024, 128 * 1024)),
        Knob("l2_bytes", _INT, "l2_bytes", low=128,
             examples=(128 * 1024, 256 * 1024, 512 * 1024)),
        Knob("l2_assoc", _INT, "l2_assoc", low=1, examples=(4, 8, 16)),
        Knob("line_bytes", _INT, "line_bytes", low=16,
             examples=(64, 128)),
        # Latencies and port occupancies.
        Knob("l1_latency", _INT, "l1_latency", low=1, examples=(10, 20, 40)),
        Knob("l2_latency", _INT, "l2_latency", low=1,
             examples=(80, 160, 320)),
        Knob("dram_latency", _INT, "dram_latency", low=1,
             examples=(110, 220, 440)),
        Knob("shared_latency", _INT, "shared_latency", low=1,
             examples=(10, 20, 40)),
        Knob("bank_conflict_penalty", _INT, "bank_conflict_penalty", low=0,
             examples=(0, 2, 4, 8)),
        Knob("l2_service_cycles", _INT, "l2_service_cycles", low=1,
             examples=(8, 16, 32)),
        Knob("dram_service_cycles", _INT, "dram_service_cycles", low=1,
             examples=(1, 2, 4)),
        # Spill cacheability and background pressure.
        Knob("spill_cache_policy", _CHOICE, "spill_cache_policy",
             choices=("uncached", "l2", "l1"),
             examples=("uncached", "l2", "l1")),
        Knob("shader_pollution_lines", _INT, "shader_pollution_lines", low=0,
             examples=(0, 24, 48, 96)),
        # Traversal strategy (job-level, not a GPUConfig field).
        Knob("strategy", _CHOICE, None, choices=_strategy_choices(),
             examples=("sms", "stackless", "reorder")),
    ]


def knob_registry() -> Dict[str, Knob]:
    """Name -> :class:`Knob` for every explorable parameter."""
    return {knob.name: knob for knob in _knob_list()}


def available_knobs() -> List[str]:
    """Sorted names of every knob ``repro ablate`` understands."""
    return sorted(knob_registry())


@dataclass(frozen=True)
class KnobSpace:
    """One declared design space: pinned knobs plus swept ranges.

    ``fixed`` holds single values (pykeen's ``kwargs``); ``ranges``
    holds value lists whose Cartesian product — over range names in
    sorted order, so declaration order of the dict never matters — is
    the run matrix (pykeen's ``kwargs_ranges``).  ``scenes`` selects the
    workload subset (``None`` = the full Table II suite).
    """

    name: str = "space"
    fixed: Dict = field(default_factory=dict)
    ranges: Dict[str, Sequence] = field(default_factory=dict)
    scenes: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        registry = knob_registry()
        if not self.ranges:
            raise AblationError(
                f"space {self.name!r} declares no ranges — nothing to sweep"
            )
        for source_name, mapping in (("fixed", self.fixed),
                                     ("ranges", self.ranges)):
            for knob_name in sorted(mapping):
                knob = registry.get(knob_name)
                if knob is None:
                    raise AblationError(
                        f"unknown knob {knob_name!r} in {source_name} of "
                        f"space {self.name!r}; known knobs: "
                        f"{', '.join(available_knobs())}"
                    )
        for knob_name in sorted(self.ranges):
            values = list(self.ranges[knob_name])
            if not values:
                raise AblationError(
                    f"empty range for knob {knob_name!r} in space "
                    f"{self.name!r} — a range needs at least one value"
                )
            seen: List = []
            for value in values:
                registry[knob_name].validate(value)
                if value in seen:
                    raise AblationError(
                        f"duplicate value {value!r} in range for knob "
                        f"{knob_name!r} of space {self.name!r}"
                    )
                seen.append(value)
            if knob_name in self.fixed:
                raise AblationError(
                    f"knob {knob_name!r} appears in both fixed and ranges "
                    f"of space {self.name!r}"
                )
        for knob_name in sorted(self.fixed):
            registry[knob_name].validate(self.fixed[knob_name])
        if self.scenes is not None:
            from repro.workloads.lumibench import SCENE_NAMES

            for scene in self.scenes:
                if scene.upper() not in SCENE_NAMES:
                    raise AblationError(
                        f"unknown scene {scene!r} in space {self.name!r}; "
                        f"known scenes: {', '.join(SCENE_NAMES)}"
                    )

    @property
    def range_names(self) -> List[str]:
        """Swept knob names in the canonical (sorted) order."""
        return sorted(self.ranges)

    @property
    def size(self) -> int:
        """Matrix cardinality before invalid-combination filtering."""
        total = 1
        for knob_name in self.range_names:
            total *= len(self.ranges[knob_name])
        return total

    def scene_names(self) -> List[str]:
        """The scenes this space sweeps (defaults to the full suite)."""
        if self.scenes is not None:
            return [scene.upper() for scene in self.scenes]
        from repro.workloads.lumibench import SCENE_NAMES

        return list(SCENE_NAMES)

    def to_dict(self) -> Dict:
        """Canonical JSON form (knobs in sorted order)."""
        return {
            "name": self.name,
            "scenes": list(self.scenes) if self.scenes is not None else None,
            "fixed": {name: self.fixed[name] for name in sorted(self.fixed)},
            "ranges": {
                name: list(self.ranges[name]) for name in self.range_names
            },
        }

    @classmethod
    def from_dict(cls, data: Dict, name: str = "space") -> "KnobSpace":
        """Build (and fully validate) a space from a parsed JSON dict."""
        if not isinstance(data, dict):
            raise AblationError(
                f"knob-space document must be a JSON object, got "
                f"{type(data).__name__}"
            )
        unknown = sorted(set(data) - {"name", "scenes", "fixed", "ranges"})
        if unknown:
            raise AblationError(
                f"unknown top-level key(s) in knob space: "
                f"{', '.join(unknown)} (expected name/scenes/fixed/ranges)"
            )
        fixed = data.get("fixed", {})
        ranges = data.get("ranges", {})
        if not isinstance(fixed, dict) or not isinstance(ranges, dict):
            raise AblationError("'fixed' and 'ranges' must be JSON objects")
        for knob_name in sorted(ranges):
            if not isinstance(ranges[knob_name], list):
                raise AblationError(
                    f"range for knob {knob_name!r} must be a JSON list"
                )
        scenes = data.get("scenes")
        if scenes is not None:
            if (not isinstance(scenes, list)
                    or not all(isinstance(s, str) for s in scenes)):
                raise AblationError("'scenes' must be a list of scene names")
            scenes = tuple(scenes)
        return cls(
            name=str(data.get("name", name)),
            fixed=dict(fixed),
            ranges={key: list(value) for key, value in ranges.items()},
            scenes=scenes,
        )


def load_space(path) -> KnobSpace:
    """Load and validate a knob-space JSON file.

    Every failure mode — missing file, malformed JSON, non-object
    document, unknown knobs, empty ranges — raises
    :class:`AblationError` with a message naming the offending input, so
    the CLI reports it structurally (exit 2) instead of a traceback.
    """
    file_path = Path(path)
    try:
        text = file_path.read_text()
    except OSError as error:
        raise AblationError(
            f"cannot read knob-space file {file_path}: {error}"
        ) from error
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise AblationError(
            f"malformed JSON in knob-space file {file_path}: {error}"
        ) from error
    return KnobSpace.from_dict(data, name=file_path.stem)
