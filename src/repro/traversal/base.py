"""The traversal-strategy interface.

A :class:`TraversalStrategy` is one traversal *architecture*: how rays
walk the BVH (what phase one records) and what per-lane state the RT
unit's stack manager keeps while replaying them (what phase two prices).
The interface is the seam extracted from the old ``RTUnit`` /
``stack.factory`` boundary, widened to cover both phases:

* :meth:`build_workload` — phase one: produce the ray-trace streams.
  Stack-based strategies record the reference tracer's event streams
  verbatim; the stackless backend re-traces with escape links (no
  pushes/pops to record); the reordering backend permutes each wave
  before warps are formed.
* :meth:`make_unit_stacks` — phase two: the per-warp-slot
  :class:`~repro.stack.base.StackModel` list one RT unit replays those
  streams against.  This is where the old RTUnit constructor's
  stack/inter-warp branching now lives.
* :meth:`adapt_config` — strategy-implied configuration changes (e.g.
  stackless frees the SH carve-out back to the L1D).
* :meth:`trace_key` — discriminates phase-one outputs in the phase key
  (the trace memo and the stored phase one) and the content-addressed
  job key.  Strategies producing
  identical traces may share a key; strategies with tunables must fold
  them in.

``uses_stack`` is the guard layer's contract: strategies that keep no
traversal stack degrade :class:`~repro.guard.invariants.GuardedStack`
to structural-only checks instead of tripping conservation laws.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.bvh.wide import WideBVH
    from repro.gpu.config import GPUConfig
    from repro.stack.base import StackModel
    from repro.trace.path import PathTracerWorkload


class TraversalStrategy(ABC):
    """One traversal architecture, pluggable into both simulator phases."""

    #: Registry key (see :mod:`repro.traversal.registry`).
    name: str = ""
    #: False when the strategy keeps no per-lane traversal stack; the
    #: guard layer then runs structural-only checks (no conservation
    #: laws, zero-traffic assertions instead).
    uses_stack: bool = True

    def adapt_config(self, config: "GPUConfig") -> "GPUConfig":
        """The configuration this strategy actually runs under.

        Default: identity.  Must be a pure function of ``config`` so job
        keys stay content-addressed.
        """
        return config

    def trace_key(self) -> str:
        """Phase-one discriminator for trace memo / job cache keys.

        Strategies whose :meth:`build_workload` emits identical streams
        may share a key; anything that changes the streams (different
        tracer, reorder tunables) must change it.
        """
        return "recorded"

    def build_workload(
        self,
        bvh: "WideBVH",
        width: int = 16,
        height: int = 16,
        spp: int = 1,
        max_bounces: int = 2,
        seed: int = 0,
    ) -> "PathTracerWorkload":
        """Phase one: path-trace the frame this strategy will time.

        Default: the recorded reference workload, unchanged.
        """
        from repro.trace.path import generate_workload

        return generate_workload(
            bvh, width=width, height=height, spp=spp,
            max_bounces=max_bounces, seed=seed,
        )

    @abstractmethod
    def make_unit_stacks(
        self, config: "GPUConfig", sm_id: int = 0
    ) -> List["StackModel"]:
        """Phase two: one lane-state model per warp slot of one RT unit.

        ``config`` is the already-adapted configuration; the list length
        must equal ``config.max_warps_per_rt_unit``.
        """

    def describe(self) -> str:
        """Short human-readable label."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"{type(self).__name__}(name={self.name!r})"
