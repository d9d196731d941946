"""Ray-reordering traversal strategy (scheduling-side coherence recovery).

Where SMS attacks stack spills by adding storage, reordering attacks the
*cause* — divergent rays packed into one warp — by regrouping each wave
by predicted traversal locality before warps are formed (Meister et al.,
arXiv 2506.11273 survey this hardware direction).  The per-ray event
streams are exactly the recorded reference streams; only the warp
packing changes, so the timing model sees more coherent node fetches and
better-aligned stack behaviour without any new stack hardware.

The reorder sorts each whole wave (a wave is what the scheduler sees at
once), as an unbounded reorder buffer would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.trace.ordering import reorder_wave_by_locality
from repro.traversal.stack_based import StackStrategy

if TYPE_CHECKING:
    from repro.bvh.wide import WideBVH
    from repro.trace.path import PathTracerWorkload


class ReorderStrategy(StackStrategy):
    """Locality-sorted warp formation over the configured stack model."""

    name = "reorder"

    def trace_key(self) -> str:
        # The permutation is part of the phase-one output, so it must
        # discriminate memo and job-cache entries.  The literal names the
        # key depth (8) and the whole-wave window (0); changing it would
        # orphan every stored reorder phase one.
        return "reorder/k8/w0"

    def build_workload(self, bvh: "WideBVH", **kwargs) -> "PathTracerWorkload":
        workload = super().build_workload(bvh, **kwargs)
        workload.waves = [
            reorder_wave_by_locality(wave) for wave in workload.waves
        ]
        return workload
