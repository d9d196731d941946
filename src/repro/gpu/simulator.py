"""Whole-GPU simulation: workload -> warps -> SMs -> counters.

Warps are distributed round-robin over the SMs.  Each SM owns a private
L1D and RT unit; all SMs share the L2 and DRAM objects.  SMs execute
sequentially against the shared lower hierarchy — a deliberate
simplification (documented in DESIGN.md): per-SM timelines are
independent, capacity sharing in L2/DRAM bandwidth pressure is retained,
fine-grained cross-SM interleaving is not.  Total cycles are the slowest
SM's completion time, matching how the paper reports whole-frame IPC.

Two timing backends execute the same schedule, one greedy-then-oldest
warp pick per traversal iteration (paper section VI-A):

* ``"stepped"`` (default) — :class:`~repro.gpu.rt_unit.RTUnit`, the
  per-lane oracle every other path is validated against;
* ``"vector"`` — :class:`~repro.gpu.vector.unit.VectorRTUnit`,
  plan-driven SoA replay (see :mod:`repro.gpu.vector`), bit-identical
  by contract and much faster.  Runs outside the vector backend's
  validity envelope (guarded runs, inter-warp reallocation, L1-cached
  spills, oversized node address spaces) fall back to stepped for the
  whole run; :attr:`SimOutput.backend` records what actually executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.gpu.counters import Counters
from repro.gpu.cache import Cache
from repro.gpu.dram import Dram
from repro.gpu.hierarchy import MemoryHierarchy
from repro.gpu.rt_unit import RTUnit
from repro.gpu.warp import Warp, pack_warps
from repro.trace.events import RayTrace

#: Timing backends accepted by :class:`GPUSimulator`.
BACKENDS = ("stepped", "vector")


@dataclass
class SimOutput:
    """Result of one timing simulation."""

    config: GPUConfig
    counters: Counters
    per_sm_cycles: List[int] = field(default_factory=list)
    #: The timing backend that actually executed — ``"stepped"`` when a
    #: ``backend="vector"`` request fell back (see module docstring).
    backend: str = "stepped"

    @property
    def ipc(self) -> float:
        """Instructions per cycle for the whole run."""
        return self.counters.ipc

    @property
    def cycles(self) -> int:
        """Total cycles (slowest SM)."""
        return self.counters.cycles

    @property
    def offchip_accesses(self) -> int:
        """DRAM transactions."""
        return self.counters.offchip_accesses


class GPUSimulator:
    """Times a traced workload under a given configuration.

    ``guard`` (a :class:`~repro.guard.config.GuardConfig`) opts into the
    integrity layer: per-drain-step invariant checking and the
    forward-progress watchdog.  Guards observe without perturbing, so
    guarded counters are bit-identical to unguarded ones.

    ``backend`` selects the timing core (``"stepped"`` or ``"vector"``);
    both produce bit-identical counters and cycles, enforced by
    ``tests/gpu/test_vector_equiv.py``.
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        verify_pops: bool = True,
        guard=None,
        strategy=None,
        backend: str = "stepped",
    ) -> None:
        from repro.traversal.registry import resolve_strategy

        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown timing backend {backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )
        #: The traversal strategy (name, instance, or None for the
        #: default stack strategy).  The strategy may adapt the
        #: configuration — e.g. stackless drops the SH carve-out, which
        #: returns that SRAM to the L1D.
        self.strategy = resolve_strategy(strategy)
        self.config = self.strategy.adapt_config(config or GPUConfig())
        self.verify_pops = verify_pops
        self.guard = guard
        self.backend = backend

    def _resolve_backend(self, warps: Sequence[Warp]) -> str:
        """The backend this run will actually use.

        A ``"vector"`` request degrades to ``"stepped"`` when the run
        is outside the vector mirror's validity envelope — decided
        before any simulation state is touched, so the fallback is a
        clean whole-run switch, never a mid-run mix.
        """
        if self.backend != "vector":
            return "stepped"
        from repro.gpu.vector.plan import (
            VectorUnsupported,
            vector_unsupported_reason,
            warp_plan,
        )

        if vector_unsupported_reason(self.config, self.guard) is not None:
            return "stepped"
        try:
            for warp in warps:
                warp_plan(warp, self.config, self.strategy)
        except VectorUnsupported:
            return "stepped"
        return "vector"

    def run_traces(self, traces: Sequence[RayTrace]) -> SimOutput:
        """Simulate a flat list of ray traces (wave order preserved)."""
        config = self.config
        warps = pack_warps(traces, warp_size=config.warp_size)
        backend = self._resolve_backend(warps)
        if backend == "vector":
            from repro.gpu.vector.unit import VectorRTUnit

            unit_class = VectorRTUnit
            guard = None
        else:
            unit_class = RTUnit
            guard = self.guard
        counters = Counters()
        l2 = Cache(
            size_bytes=config.l2_bytes,
            line_bytes=config.line_bytes,
            assoc=config.l2_assoc,
            name="L2",
        )
        per_sm_cycles: List[int] = []
        # Round-robin warp distribution across SMs.
        for sm_id in range(config.num_sms):
            sm_warps = [w for i, w in enumerate(warps) if i % config.num_sms == sm_id]
            if not sm_warps:
                per_sm_cycles.append(0)
                continue
            dram = Dram(
                latency=config.dram_latency,
                service_cycles=config.dram_service_cycles * config.num_sms,
            )
            hierarchy = MemoryHierarchy(config, l2=l2, dram=dram)
            rt_unit = unit_class(
                config, hierarchy, counters, sm_id=sm_id,
                verify_pops=self.verify_pops, guard=guard,
                strategy=self.strategy,
            )
            cycles = rt_unit.run(sm_warps)
            per_sm_cycles.append(cycles)
        counters.cycles = max(per_sm_cycles) if per_sm_cycles else 0
        return SimOutput(
            config=config, counters=counters, per_sm_cycles=per_sm_cycles,
            backend=backend,
        )
