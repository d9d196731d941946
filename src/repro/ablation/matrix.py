"""Deterministic run-matrix generation from a knob space.

The matrix is the Cartesian product of the space's ranges laid over its
fixed knobs.  Iteration order is canonical — range names sorted, values
in declared order — so the matrix (and every run ID in it) is identical
no matter how the declaring dictionaries were ordered.

Each run's identity is content-derived: :func:`run_id` digests the
resolved knob assignment (sorted keys, canonical JSON), so the same
design point always gets the same ID across processes, sessions and
machines — and downstream, each (run, scene) cell becomes a
content-addressed :class:`~repro.runtime.job.SimulationJob` that
deduplicates against the persistent result store for free.

Combinations that violate :class:`~repro.gpu.config.GPUConfig`'s
structural constraints (an SH stack on RB_FULL, a carve-out larger than
the unified SRAM) are filtered out and *reported* in
:class:`RunMatrix.skipped` — never silently dropped.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import AblationError, ConfigError
from repro.gpu.config import GPUConfig
from repro.ablation.space import (
    STRATEGY, KnobSpace, available_knobs, check_knob,
)

#: Hex digits of the SHA-256 digest kept as the run ID.
_RUN_ID_LEN = 16

#: Knobs a run label already shows: the RB/SH/SK/RA/IW ladder that
#: ``GPUConfig.describe()`` renders, and the ``[strategy]`` suffix.
_LABELLED_KNOBS = frozenset({
    "rb_stack_entries", "sh_stack_entries", "skewed_bank_access",
    "intra_warp_realloc", "inter_warp_realloc", STRATEGY,
})


def run_id(knobs: Dict) -> str:
    """Stable content-derived ID for one resolved knob assignment.

    SHA-256 over the canonical JSON form (sorted keys, compact
    separators), truncated to 16 hex digits.  Key order of the input
    dict is irrelevant by construction.
    """
    blob = json.dumps(knobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:_RUN_ID_LEN]


@dataclass(frozen=True)
class RunSpec:
    """One design point of the matrix.

    ``knobs`` is the full resolved assignment (fixed plus this
    combination's range values); ``config`` is the validated
    ``GPUConfig`` it produces and ``strategy`` the traversal strategy
    name the jobs will carry.
    """

    id: str
    knobs: Dict
    config: GPUConfig
    strategy: str = "sms"

    @property
    def label(self) -> str:
        """Figure-style config label, strategy-suffixed when non-default.

        Every other knob of the assignment follows as ` name=value`, so
        design points that differ only off the ladder stay distinct.
        """
        label = self.config.describe()
        if self.strategy != "sms":
            label += f"[{self.strategy}]"
        for name in sorted(self.knobs):
            if name not in _LABELLED_KNOBS:
                label += f" {name}={self.knobs[name]}"
        return label


@dataclass
class RunMatrix:
    """Every valid design point of a space, plus what was filtered."""

    space: KnobSpace
    runs: List[RunSpec] = field(default_factory=list)
    #: Combinations rejected by GPUConfig validation: (knobs, reason).
    skipped: List[Tuple[Dict, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.runs)


def resolve_run(knobs: Dict) -> RunSpec:
    """Build (and validate) the :class:`RunSpec` for one assignment.

    Splits the assignment into GPUConfig fields and the ``strategy``
    pseudo-knob, constructs the config — surfacing
    :class:`~repro.errors.ConfigError` unchanged so callers can decide
    whether a bad combination is fatal (a direct request) or filterable
    (one cell of a product).
    """
    known = available_knobs()
    config_kwargs = {}
    strategy = "sms"
    for name in sorted(knobs):
        if name not in known:
            raise AblationError(f"unknown knob {name!r} in run assignment")
        check_knob(name, knobs[name])
        if name == STRATEGY:
            strategy = knobs[name]
        else:
            config_kwargs[name] = knobs[name]
    config = GPUConfig(**config_kwargs)
    return RunSpec(
        id=run_id(knobs), knobs=dict(knobs), config=config, strategy=strategy
    )


def generate_matrix(space: KnobSpace) -> RunMatrix:
    """Expand a knob space into its deterministic run matrix.

    The product is taken over ``space.range_names`` (sorted) with each
    range's values in declared order, so run order is reproducible.
    Structurally invalid combinations are recorded in ``skipped`` with
    the validation message; a space whose every combination is invalid
    raises, since an empty matrix can answer no question.
    """
    matrix = RunMatrix(space=space)
    names = space.range_names
    pools = [list(space.ranges[name]) for name in names]
    seen_ids = set()
    for combination in itertools.product(*pools):
        knobs = dict(space.fixed)
        for name, value in zip(names, combination):
            knobs[name] = value
        try:
            run = resolve_run(knobs)
        except ConfigError as error:
            matrix.skipped.append((knobs, str(error)))
            continue
        if run.id in seen_ids:
            # Unreachable when the space validated (ranges are
            # duplicate-free and disjoint from fixed), but cheap
            # insurance that the no-duplicates property always holds.
            continue
        seen_ids.add(run.id)
        matrix.runs.append(run)
    if not matrix.runs:
        reasons = "; ".join(sorted({reason for _, reason in matrix.skipped}))
        raise AblationError(
            f"space {space.name!r} produced no valid configurations "
            f"({len(matrix.skipped)} combination(s) rejected: {reasons})"
        )
    return matrix


def corner_assignment(space: KnobSpace, *, full: bool) -> Dict:
    """The all-first (reference) or all-last (full) corner of a space.

    By the declared off->on range convention the reference corner has
    every mechanism removed and the full corner every mechanism at its
    strongest setting; the importance analysis measures between them.
    """
    knobs = dict(space.fixed)
    for name in space.range_names:
        values = list(space.ranges[name])
        knobs[name] = values[-1] if full else values[0]
    return knobs
