"""Declarative SMS knob spaces: ``fixed`` kwargs vs ``ranges``.

A :class:`KnobSpace` declares a design-space exploration the way the
pykeen ablation pipeline declares one — a dictionary of pinned knob
values (``fixed``) plus a dictionary of per-knob value lists
(``ranges``) whose Cartesian product is the run matrix.  The knobs are
the fields of :class:`~repro.gpu.config.GPUConfig`, each with the domain
:data:`~repro.gpu.config.FIELD_DOMAINS` declares for it, plus the
traversal ``strategy`` pseudo-knob, whose choices are the strategies
:mod:`repro.traversal` registers.

Each value is checked against its knob's domain when the space is built
(unknown knob, empty range, duplicate values, type/bounds errors all
raise :class:`~repro.errors.AblationError` with the knob name in the
message).  The rules that tie fields together (an SH stack on RB_FULL,
a carve-out larger than the unified SRAM) are ``GPUConfig``'s own, and
each *combination* meets them when matrix generation constructs its
config (see :mod:`repro.ablation.matrix`).

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

from repro.errors import AblationError, ConfigError
from repro.gpu.config import FIELD_DOMAINS, check_field

#: The job-level knob that picks the traversal strategy.
STRATEGY = "strategy"


def available_knobs() -> List[str]:
    """Sorted names of every knob ``repro ablate`` understands."""
    return sorted([*FIELD_DOMAINS, STRATEGY])


def check_knob(name: str, value) -> None:
    """Raise :class:`AblationError` unless ``value`` is in the domain of
    knob ``name``, a ``GPUConfig`` field or :data:`STRATEGY`."""
    if name == STRATEGY:
        from repro.traversal import available_strategies

        choices = available_strategies()
        if value not in choices:
            raise AblationError(
                f"knob {name!r} must be one of "
                f"{', '.join(map(repr, choices))}, got {value!r}"
            )
        return
    try:
        check_field(name, value)
    except ConfigError as error:
        raise AblationError(f"knob {name!r}: {error}") from error


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
        known = available_knobs()
        if not self.ranges:
            raise AblationError(
                f"space {self.name!r} declares no ranges — nothing to sweep"
            )
        for source_name, mapping in (("fixed", self.fixed),
                                     ("ranges", self.ranges)):
            for knob_name in sorted(mapping):
                if knob_name not in known:
                    raise AblationError(
                        f"unknown knob {knob_name!r} in {source_name} of "
                        f"space {self.name!r}; known knobs: "
                        f"{', '.join(known)}"
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
                check_knob(knob_name, value)
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
            check_knob(knob_name, self.fixed[knob_name])
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
