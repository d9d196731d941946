"""Per-mechanism importance and IPC-vs-SRAM Pareto analysis.

Works on plain per-run, per-scene IPC data (whatever the executor
collected, or a report reloaded from disk), so ``repro ablate report``
and ``repro ablate pareto`` never need to re-simulate.

Two attribution views, both anchored on the space's range convention
(first value = knob removed, last value = knob at full strength):

*Leave-one-out (LOO)* — from the full corner (every range at its last
value), set one knob back to its first value and measure the IPC lost.
This is "how much of the +21.9% does each mechanism carry on top of
everything else" — the attribution the paper's Fig. 13 stacking
implies.

*One-at-a-time (OAT)* — from the reference corner (every range at its
first value), set one knob to its last value and measure the IPC
gained.  This is each mechanism's solo contribution, before synergies.

Both are ratios of cross-scene geometric means, so they are invariant
to absolute workload scale.  The ranking sorts by LOO descending (ties
by knob name), which makes it deterministic given deterministic
simulation results.

The Pareto frontier trades the speedup over the reference corner
against :func:`stack_sram_bytes` — the per-SM SRAM the stack design
costs (RB entries + SH carve-out + SMS bookkeeping fields), the axis
the paper's VI-C overhead argument lives on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import AblationError
from repro.experiments.common import geomean
from repro.gpu.config import GPUConfig
from repro.ablation.matrix import RunMatrix, run_id
from repro.ablation.space import KnobSpace

#: RB entries assumed for the unbounded RB_FULL design when costing
#: SRAM (a documented proxy: deep enough for every Table II scene).
FULL_STACK_PROXY_ENTRIES = 64


def stack_sram_bytes(config: GPUConfig) -> int:
    """Per-SM SRAM bytes the traversal-stack design costs.

    Ray-buffer storage (paper VI-C arithmetic: ``ENTRY_BYTES`` x entries
    x threads), plus the shared-memory carve-out, plus the SMS
    bookkeeping fields when an SH tier exists.  ``rb_stack_entries=None``
    (RB_FULL) is costed at :data:`FULL_STACK_PROXY_ENTRIES`.
    """
    from repro.stack.base import ENTRY_BYTES
    from repro.stack.fields import overhead_bytes_per_rt_unit

    entries = (
        config.rb_stack_entries
        if config.rb_stack_entries is not None
        else FULL_STACK_PROXY_ENTRIES
    )
    rb_bytes = ENTRY_BYTES * entries * config.threads_per_rt_unit
    total = rb_bytes + config.shared_memory_bytes
    if config.sh_stack_entries:
        fields = overhead_bytes_per_rt_unit(
            sh_entries=config.sh_stack_entries,
            warp_size=config.warp_size,
            warps_per_rt_unit=config.max_warps_per_rt_unit,
            max_borrows=config.max_borrows,
            max_flushes=config.max_flushes,
        )
        total += fields["total_bytes"]
    return total


@dataclass(frozen=True)
class KnobImportance:
    """One knob's attribution between the space's two corners."""

    knob: str
    #: The removed/full settings (first/last value of the range).
    off_value: object
    on_value: object
    #: Fractional IPC lost removing the knob from the full corner.
    loo_delta: float
    #: Fractional IPC gained adding only this knob to the reference.
    oat_delta: float

    def to_dict(self) -> Dict:
        return {
            "knob": self.knob,
            "off_value": self.off_value,
            "on_value": self.on_value,
            "loo_delta": self.loo_delta,
            "oat_delta": self.oat_delta,
        }


def _geo_ipc(per_scene_ipc: Dict[str, Dict[str, float]],
             spec_id: str) -> float:
    scenes = per_scene_ipc.get(spec_id)
    if scenes is None:
        raise AblationError(
            f"importance analysis needs run {spec_id!r}, which is not in "
            f"the collected results (was its combination skipped as "
            f"invalid?)"
        )
    return geomean([scenes[name] for name in sorted(scenes)])


def _corner_id(space: KnobSpace, overrides: Optional[Dict] = None,
               *, full: bool) -> str:
    knobs = dict(space.fixed)
    for name in space.range_names:
        values = list(space.ranges[name])
        knobs[name] = values[-1] if full else values[0]
    for name in sorted(overrides or {}):
        knobs[name] = overrides[name]
    return run_id(knobs)


def rank_importance(
    space: KnobSpace,
    per_scene_ipc: Dict[str, Dict[str, float]],
) -> List[KnobImportance]:
    """LOO + OAT attribution for every ranged knob, ranked by LOO.

    ``per_scene_ipc`` maps run IDs to per-scene IPC.  The full
    Cartesian matrix contains every corner this needs; a missing corner
    (filtered as structurally invalid) raises :class:`AblationError`
    naming the run, since a partial ranking would silently misattribute.
    """
    full_ipc = _geo_ipc(per_scene_ipc, _corner_id(space, full=True))
    ref_ipc = _geo_ipc(per_scene_ipc, _corner_id(space, full=False))
    ranked: List[KnobImportance] = []
    for name in space.range_names:
        values = list(space.ranges[name])
        off_value, on_value = values[0], values[-1]
        without = _geo_ipc(
            per_scene_ipc,
            _corner_id(space, {name: off_value}, full=True),
        )
        alone = _geo_ipc(
            per_scene_ipc,
            _corner_id(space, {name: on_value}, full=False),
        )
        ranked.append(KnobImportance(
            knob=name,
            off_value=off_value,
            on_value=on_value,
            loo_delta=(full_ipc / without - 1.0) if without else 0.0,
            oat_delta=(alone / ref_ipc - 1.0) if ref_ipc else 0.0,
        ))
    ranked.sort(key=lambda imp: (-imp.loo_delta, imp.knob))
    return ranked


@dataclass(frozen=True)
class ParetoPoint:
    """One run's position in the IPC-vs-SRAM plane."""

    run_id: str
    label: str
    sram_bytes: int
    speedup: float

    def to_dict(self) -> Dict:
        return {
            "run_id": self.run_id,
            "label": self.label,
            "sram_bytes": self.sram_bytes,
            "speedup": self.speedup,
        }


def speedups_vs_reference(
    space: KnobSpace,
    per_scene_ipc: Dict[str, Dict[str, float]],
) -> Dict[str, float]:
    """Per-run geomean speedup over the reference corner.

    The paper's normalization convention: each scene's IPC is divided
    by the reference corner's IPC *on that scene*, then geomeaned.
    """
    ref = per_scene_ipc.get(_corner_id(space, full=False))
    if ref is None:
        raise AblationError(
            "speedup analysis needs the reference corner (every range at "
            "its first value), which is not in the collected results"
        )
    speedups: Dict[str, float] = {}
    for spec_id in sorted(per_scene_ipc):
        scenes = per_scene_ipc[spec_id]
        ratios = [
            scenes[name] / ref[name]
            for name in sorted(scenes)
            if ref.get(name)
        ]
        speedups[spec_id] = geomean(ratios) if ratios else 0.0
    return speedups


def pareto_frontier(points: List[ParetoPoint]) -> List[ParetoPoint]:
    """The non-dominated set: no cheaper-or-equal point is faster.

    Deterministic: candidates sort by (SRAM ascending, speedup
    descending, run ID), and a point joins the frontier only when its
    speedup strictly exceeds every cheaper point's.  Ties at identical
    SRAM keep the single best point (smallest run ID on equal speedup).
    """
    ordered = sorted(
        points, key=lambda p: (p.sram_bytes, -p.speedup, p.run_id)
    )
    frontier: List[ParetoPoint] = []
    best = float("-inf")
    for point in ordered:
        if point.speedup > best:
            frontier.append(point)
            best = point.speedup
    return frontier


def pareto_points(
    matrix: RunMatrix,
    speedups: Dict[str, float],
) -> List[ParetoPoint]:
    """Every run as a :class:`ParetoPoint` (matrix order)."""
    points: List[ParetoPoint] = []
    for run in matrix.runs:
        if run.id not in speedups:
            raise AblationError(
                f"run {run.id!r} has no collected speedup — results and "
                f"matrix disagree"
            )
        points.append(ParetoPoint(
            run_id=run.id,
            label=run.label,
            sram_bytes=stack_sram_bytes(run.config),
            speedup=speedups[run.id],
        ))
    return points
