"""The vector RT unit: plan-driven replica of the stepped scheduler.

:class:`VectorRTUnit` runs the *same* event-driven schedule as
:class:`~repro.gpu.rt_unit.RTUnit` — greedy-then-oldest arbitration
of every iteration and ``pipeline_free`` issue serialization — but each
iteration's work is a precomputed
:class:`~repro.gpu.vector.plan.WarpPlan` record instead of a per-lane
replay.  Memory is not mirrored: node fetches, shader-pollution bursts
and global spill ops go through the SM's own
:class:`~repro.gpu.hierarchy.MemoryHierarchy`, with the calls and
arguments the stepped unit makes, so both cores share one L1/L2/DRAM
model.

Bit-identity contract (enforced by ``tests/gpu/test_vector_equiv.py``
and the SL204 lint): every ``Counters`` field and the returned
completion cycle match the stepped oracle exactly.  The class declares
``COUNTER_PARITY_ORACLE`` so simlint statically checks that this file's
``run`` call graph writes every counter field the oracle dataclass
declares — a new counter added to :mod:`repro.gpu.counters` without a
vector write path fails the lint, not just (eventually) a test.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

from repro.errors import SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.counters import Counters
from repro.gpu.hierarchy import MemoryHierarchy
from repro.gpu.rt_unit import verify_pop
from repro.gpu.warp import Warp
from repro.gpu.vector.plan import warp_plan

__all__ = ["VectorRTUnit"]


class VectorRTUnit:
    """One SM's RT unit, executing precomputed warp plans."""

    #: simlint SL204: ``run``'s call graph must write every counter
    #: field this dataclass file declares (minus the exemptions below).
    COUNTER_PARITY_ORACLE = "../counters.py"
    #: ``cycles`` is owned by the simulator (max over per-SM completion).
    #: The six memory counters are written by ``MemoryHierarchy`` — the
    #: stepped unit's own memory path, reached here through
    #: ``self.hierarchy``, which SL204's call graph does not follow.
    COUNTER_PARITY_EXEMPT = (
        "cycles",
        "l1_hits", "l1_misses", "l2_hits", "l2_misses",
        "dram_reads", "dram_writes",
    )

    def __init__(
        self,
        config: GPUConfig,
        hierarchy: MemoryHierarchy,
        counters: Counters,
        sm_id: int = 0,
        verify_pops: bool = True,
        guard=None,
        strategy=None,
    ) -> None:
        from repro.traversal.registry import resolve_strategy

        if guard is not None:
            raise SimulationError(
                "the vector backend cannot host the guard layer; "
                "guarded runs must use the stepped oracle",
                sm_id=sm_id, component="backend",
            )
        self.config = config
        self.counters = counters
        self.sm_id = sm_id
        self.verify_pops = verify_pops
        self.strategy = resolve_strategy(strategy)
        #: This SM's memory path (the L2 it holds is shared across SMs).
        self.hierarchy = hierarchy

    # ------------------------------------------------------------------
    # top-level run loop — same schedule as the stepped RTUnit
    # ------------------------------------------------------------------

    def run(self, warps: Sequence[Warp]) -> int:
        """Execute all warps; returns the completion cycle."""
        pending = deque(warps)
        resident: List[list] = []  # [warp, slot, plan, iteration, spill]
        free_slots = list(range(self.config.max_warps_per_rt_unit))
        completion = 0
        pipeline_free = 0
        greedy_warp_id: Optional[int] = None

        def admit(now: int) -> None:
            while pending and free_slots:
                slot = free_slots.pop(0)
                warp = pending.popleft()
                warp.ready_time = now
                resident.append(self._admit_entry(warp, slot))

        admit(0)
        while resident:
            entry = self._pick_warp(resident, greedy_warp_id)
            warp = entry[0]
            greedy_warp_id = warp.warp_id
            start = max(warp.ready_time, pipeline_free)
            end, issue_cycles = self._execute_iteration(
                warp, entry[2], entry[3], start, entry[4]
            )
            entry[3] += 1
            pipeline_free = start + issue_cycles
            warp.ready_time = end
            completion = max(completion, end)
            if entry[3] >= entry[2].n_iters:
                resident.remove(entry)
                free_slots.append(entry[1])
                admit(end)
        return completion

    def _admit_entry(self, warp: Warp, slot: int) -> list:
        """Plan (or fetch the cached plan for) an admitted warp."""
        config = self.config
        plan = warp_plan(warp, config, self.strategy)
        if plan.n_iters == 0:
            raise SimulationError(
                "scheduled a warp with no active lanes",
                sm_id=self.sm_id, warp_id=warp.warp_id,
                component="scheduler",
            )
        if self.verify_pops and plan.mismatch is not None:
            lane, cursor, value = plan.mismatch
            verify_pop(
                warp.traces[lane], cursor, lane, value,
                self.sm_id, warp.warp_id,
            )
        self._apply_totals(plan)
        warp_index = (
            self.sm_id * config.max_warps_per_rt_unit + slot
        )
        return [warp, slot, plan, 0, warp_index * plan.warp_bytes]

    def _apply_totals(self, plan) -> None:
        """Fold the plan's order-independent counter totals in one shot.

        Each field is written explicitly (no loop over a name list) so
        the SL204 counter-surface check sees the full write surface.
        """
        counters = self.counters
        totals = plan.totals
        counters.instructions += totals["instructions"]
        counters.warp_steps += totals["warp_steps"]
        counters.node_fetch_lines += totals["node_fetch_lines"]
        counters.stack_shared_loads += totals["stack_shared_loads"]
        counters.stack_shared_stores += totals["stack_shared_stores"]
        counters.stack_global_loads += totals["stack_global_loads"]
        counters.stack_global_stores += totals["stack_global_stores"]
        counters.bank_conflict_delay_cycles += (
            totals["bank_conflict_delay_cycles"]
        )
        counters.shared_transactions += totals["shared_transactions"]
        counters.borrows += totals["borrows"]
        counters.flushes += totals["flushes"]
        counters.forced_flushes += totals["forced_flushes"]

    def _pick_warp(
        self, resident: List[list], greedy_warp_id: Optional[int]
    ) -> list:
        """GTO: stick with the greedy warp when it is as ready as any.

        Byte-for-byte the stepped ``_pick_warp`` decision procedure,
        including the first-minimal and lowest-id tie-breaks.
        """
        best = resident[0]
        for entry in resident:
            if entry[0].ready_time < best[0].ready_time:
                best = entry
        min_ready = best[0].ready_time
        if greedy_warp_id is not None:
            for entry in resident:
                warp = entry[0]
                if (
                    warp.warp_id == greedy_warp_id
                    and warp.ready_time <= min_ready
                ):
                    return entry
        pick = None
        for entry in resident:
            warp = entry[0]
            if warp.ready_time == min_ready and (
                pick is None or warp.warp_id < pick[0].warp_id
            ):
                pick = entry
        return pick

    # ------------------------------------------------------------------
    # one traversal iteration, from the plan
    # ------------------------------------------------------------------

    def _execute_iteration(
        self, warp: Warp, plan, iteration: int, start: int, spill_base: int
    ):
        """Price one planned iteration; returns (end, issue_cycles)."""
        lines, fetch_port, intersect, sdelta, sport, cplx = (
            plan.iters[iteration]
        )
        # Phase 1: node fetch, then the shader's foreign-line burst in
        # the shared L1D — the stepped unit's calls, in its order.
        hierarchy = self.hierarchy
        counters = self.counters
        fetch_done = hierarchy.fetch_lines(lines, start, counters)
        hierarchy.pollute(
            self.config.shader_pollution_lines, start, counters
        )

        # Phase 2 + 3: intersection, then the stack phase.  Iterations
        # whose chains touched only shared memory were fully priced at
        # plan time (sdelta/sport); global spill positions go through
        # the memory hierarchy.
        t = fetch_done + intersect
        stack_free = warp.stack_free
        stack_start = t if t > stack_free else stack_free
        if cplx is None:
            stack_end = stack_start + sdelta
            stack_port = sport
        else:
            stack_end, stack_port = self._price_global(
                cplx, stack_start, spill_base
            )
        warp.stack_free = stack_end
        issue_slots = stack_start + stack_port
        if issue_slots > t:
            t = issue_slots
        return t, fetch_port + intersect + stack_port

    def _price_global(self, cplx, t: int, spill_base: int):
        """Price a stack phase whose chains touch global spill memory.

        Mirrors ``RTUnit._price_stack_chains`` position by position:
        shared costs come precomputed from the plan, and each global op
        is one ``MemoryHierarchy.access_line`` under the run's spill
        policy, rebased to this warp slot's spill window
        (``spill_base``).  Returns ``(end_time, port_cycles)``.
        """
        positions, extra = cplx
        access_line = self.hierarchy.access_line
        counters = self.counters
        port = self.config.l1_port_cycles
        policy = self.config.spill_cache_policy
        port_cycles = 0
        for shared_cost, shared_port_inc, gops in positions:
            global_cost = 0
            issue = t
            for is_store, line in gops:
                done = access_line(
                    line + spill_base, issue, is_store, counters, policy
                )
                issue += port
                # Store buffer: a store costs its port slot, no
                # completion wait.
                cost = issue - t if is_store else done - t
                if cost > global_cost:
                    global_cost = cost
            port_cycles += len(gops) * port + shared_port_inc
            t += shared_cost if shared_cost > global_cost else global_cost
        return t + extra, port_cycles + extra
