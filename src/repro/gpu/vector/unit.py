"""The vector RT unit: plan-driven replica of the stepped scheduler.

:class:`VectorRTUnit` runs the *same* event-driven schedule as
:class:`~repro.gpu.rt_unit.RTUnit` — greedy-then-oldest arbitration
of every iteration and ``pipeline_free`` issue serialization — but each
iteration's work is a precomputed
:class:`~repro.gpu.vector.plan.BoundPlan` record instead of a per-lane
replay.  What remains in the loop is exactly the timing-coupled state:
the L1 mirror (:class:`~repro.gpu.vector.lru.LazyL1`), the shared L2
(the *same* ``Cache`` object the stepped path uses, mutated through the
identical probe sequence), the DRAM queue and the L2 port — inlined as
scalar arithmetic.

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
from repro.gpu.warp import Warp
from repro.gpu.vector.lru import LazyL1
from repro.gpu.vector.plan import (
    SAMPLE_STRIDE,
    warp_plan,
    raise_pop_mismatch,
)

__all__ = ["VectorRTUnit"]


class VectorRTUnit:
    """One SM's RT unit, executing precomputed warp plans."""

    #: simlint SL204: ``run``'s call graph must write every counter
    #: field this dataclass file declares (minus the exemptions below).
    COUNTER_PARITY_ORACLE = "../counters.py"
    #: ``cycles`` is owned by the simulator (max over per-SM completion).
    COUNTER_PARITY_EXEMPT = ("cycles",)

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
        # Timing-coupled memory state.  The L2 Cache object is shared
        # across SMs (by the simulator); the DRAM queue and L2 port are
        # per-SM and mirrored as plain scalars.
        self._l2 = hierarchy.l2
        self._l1 = LazyL1(config.l1d_bytes // config.line_bytes)
        self._l2_port_free = 0
        self._dram_next_free = 0
        dram = hierarchy.dram
        self._dram_latency = dram.latency
        self._dram_service1 = dram.service_cycles
        self._dram_service4 = dram.service_cycles * 4
        cycles4 = config.l2_service_cycles
        self._l2_cycles4 = cycles4 if cycles4 > 0 else 1
        cycles1 = config.l2_service_cycles // 4
        self._l2_cycles1 = cycles1 if cycles1 > 0 else 1
        self._l2_base = config.l1_latency + config.l2_latency
        self._l1_latency = config.l1_latency
        self._l1_port = config.l1_port_cycles
        self._pollution = config.shader_pollution_lines
        self._spill_policy = config.spill_cache_policy
        # One-attribute-load environment for the hot iteration loop: the
        # stable objects and scalars `_execute_iteration` needs, packed
        # so its prologue is a single tuple unpack.  Everything here is
        # immutable or mutated strictly in place (LazyL1._compact keeps
        # the deque object; Cache never rebinds ``_sets``).
        l1 = self._l1
        l2 = self._l2
        self._env = (
            l1.od, l2._sets, l2.num_sets, l2.assoc,
            l2.line_bytes, self._l1_latency, self._l2_base,
            self._l2_cycles4, self._dram_service4, self._dram_latency,
            self._l1_port, self._pollution, l1.cap,
        )

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
        raw = warp_plan(
            warp, config, self.strategy,
            sample=warp.warp_id % SAMPLE_STRIDE == 0,
        )
        plan = raw.bound(config)
        if plan.n_iters == 0:
            raise SimulationError(
                "scheduled a warp with no active lanes",
                sm_id=self.sm_id, warp_id=warp.warp_id,
                component="scheduler",
            )
        if self.verify_pops and plan.mismatch is not None:
            raise_pop_mismatch(plan.mismatch, self.sm_id, warp.warp_id)
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
        counters = self.counters
        lines, fetch_port, intersect, sdelta, sport, cplx = (
            plan.iters[iteration]
        )

        # Phase 1: node fetch — LazyL1 probe + inline L2/DRAM timing,
        # one line per L1 port slot (mirrors MemoryHierarchy.fetch_lines).
        (
            od, l2_sets, l2_num_sets, l2_assoc, line_bytes,
            l1_latency, l2_base, l2_cycles4, dram_service4, dram_latency,
            l1_port, pollution, l1_cap,
        ) = self._env
        l1 = self._l1
        l1_live = l1.live
        head_marker = l1.head_marker
        od_move = od.move_to_end
        od_pop = od.popitem
        l2_port_free = self._l2_port_free
        dram_next_free = self._dram_next_free
        now = start
        fetch_done = start
        l1_hits = 0
        l1_misses = 0
        l2_hits = 0
        l2_misses = 0
        dram_reads = 0
        dram_writes = 0
        for line, set_index in lines:
            if line in od:
                l1_hits += 1
                od_move(line)
                done = now + l1_latency
            else:
                l1_misses += 1
                if l1_live >= l1_cap:
                    # Inline LazyL1._evict_one (hot path).
                    if head_marker:
                        head_marker -= 1
                    else:
                        victim, value = od_pop(False)
                        if victim < 0:
                            head_marker = value - 1
                    l1_live -= 1
                od[line] = True
                l1_live += 1
                issue_at = l2_port_free if l2_port_free > now else now
                l2_port_free = issue_at + l2_cycles4
                cache_set = l2_sets[set_index]
                if line in cache_set:
                    cache_set.move_to_end(line)
                    l2_hits += 1
                    done = issue_at + l2_base
                else:
                    if len(cache_set) >= l2_assoc:
                        victim, dirty = cache_set.popitem(last=False)
                        if dirty:
                            write_at = (
                                dram_next_free
                                if dram_next_free > issue_at else issue_at
                            )
                            dram_next_free = write_at + dram_service4
                            dram_writes += 1
                    cache_set[line] = False
                    l2_misses += 1
                    base = issue_at + l2_base
                    read_at = (
                        dram_next_free if dram_next_free > base else base
                    )
                    dram_next_free = read_at + dram_service4
                    dram_reads += 1
                    done = read_at + dram_latency
            if done > fetch_done:
                fetch_done = done
            now += l1_port
        counters.l1_hits += l1_hits
        counters.l1_misses += l1_misses
        # Inline LazyL1.pollute (hot path): the shader's foreign-line
        # burst after every node fetch.
        if pollution > 0:
            overflow = l1_live + pollution - l1_cap
            if overflow > 0:
                while overflow > 0:
                    if head_marker:
                        take = (
                            head_marker if head_marker < overflow
                            else overflow
                        )
                        head_marker -= take
                        overflow -= take
                    else:
                        victim, value = od_pop(False)
                        if victim < 0:
                            head_marker = value
                        else:
                            overflow -= 1
                l1_live = l1_cap
            else:
                l1_live += pollution
            marker = l1.marker_seq - 1
            l1.marker_seq = marker
            od[marker] = pollution
        l1.live = l1_live
        l1.head_marker = head_marker

        # Phase 2 + 3: intersection, then the stack phase.  Iterations
        # whose chains touched only shared memory were fully priced at
        # bind time (sdelta/sport); global spill positions re-price
        # against live L2/DRAM state.
        t = fetch_done + intersect
        stack_free = warp.stack_free
        stack_start = t if t > stack_free else stack_free
        if cplx is None:
            stack_end = stack_start + sdelta
            stack_port = sport
        else:
            self._l2_port_free = l2_port_free
            self._dram_next_free = dram_next_free
            stack_end, stack_port, spill_counts = self._price_global(
                cplx, stack_start, spill_base
            )
            l2_port_free = self._l2_port_free
            dram_next_free = self._dram_next_free
            l2_hits += spill_counts[0]
            l2_misses += spill_counts[1]
            dram_reads += spill_counts[2]
            dram_writes += spill_counts[3]
        counters.l2_hits += l2_hits
        counters.l2_misses += l2_misses
        counters.dram_reads += dram_reads
        counters.dram_writes += dram_writes
        warp.stack_free = stack_end
        issue_slots = stack_start + stack_port
        if issue_slots > t:
            t = issue_slots
        self._l2_port_free = l2_port_free
        self._dram_next_free = dram_next_free
        return t, fetch_port + intersect + stack_port

    def _price_global(self, cplx, t: int, spill_base: int):
        """Price a stack phase whose chains touch global spill memory.

        Mirrors ``RTUnit._price_stack_chains`` position by position:
        shared costs come precomputed from the plan, global ops replay
        the ``MemoryHierarchy.access_line`` arithmetic for the run's
        spill policy against the live L2/DRAM state, rebased to this
        warp slot's spill window (``spill_base``).
        """
        positions, extra = cplx
        port = self._l1_port
        uncached = self._spill_policy == "uncached"
        l2_port_free = self._l2_port_free
        dram_next_free = self._dram_next_free
        l2 = self._l2
        l2_sets = l2._sets
        l2_num_sets = l2.num_sets
        l2_assoc = l2.assoc
        line_bytes = l2.line_bytes
        l2_base = self._l2_base
        l2_cycles1 = self._l2_cycles1
        dram_service1 = self._dram_service1
        dram_service4 = self._dram_service4
        dram_latency = self._dram_latency
        l2_hits = 0
        l2_misses = 0
        dram_reads = 0
        dram_writes = 0
        port_cycles = 0
        for shared_cost, shared_port_inc, gops in positions:
            global_cost = 0
            if gops:
                index = 0
                for is_store, line0 in gops:
                    now = t + index * port
                    issue_at = (
                        l2_port_free if l2_port_free > now else now
                    )
                    l2_port_free = issue_at + l2_cycles1
                    if uncached:
                        if is_store:
                            write_at = (
                                dram_next_free
                                if dram_next_free > issue_at else issue_at
                            )
                            dram_next_free = write_at + dram_service1
                            dram_writes += 1
                            cost = (index + 1) * port
                        else:
                            base = issue_at + l2_base
                            read_at = (
                                dram_next_free
                                if dram_next_free > base else base
                            )
                            dram_next_free = read_at + dram_service1
                            dram_reads += 1
                            cost = read_at + dram_latency - t
                    else:  # "l2" spill policy
                        line = line0 + spill_base
                        cache_set = l2_sets[
                            (line // line_bytes) % l2_num_sets
                        ]
                        if line in cache_set:
                            cache_set.move_to_end(line)
                            if is_store:
                                cache_set[line] = True
                            l2_hits += 1
                            done = issue_at + l2_base
                        else:
                            if len(cache_set) >= l2_assoc:
                                victim, dirty = cache_set.popitem(last=False)
                                if dirty:
                                    write_at = (
                                        dram_next_free
                                        if dram_next_free > issue_at
                                        else issue_at
                                    )
                                    dram_next_free = write_at + dram_service4
                                    dram_writes += 1
                            cache_set[line] = is_store
                            l2_misses += 1
                            done = issue_at + l2_base
                            if not is_store:
                                read_at = (
                                    dram_next_free
                                    if dram_next_free > done else done
                                )
                                dram_next_free = read_at + dram_service4
                                dram_reads += 1
                                done = read_at + dram_latency
                        if is_store:
                            cost = (index + 1) * port
                        else:
                            cost = done - t
                    if cost > global_cost:
                        global_cost = cost
                    index += 1
                port_cycles += len(gops) * port
            port_cycles += shared_port_inc
            t += shared_cost if shared_cost > global_cost else global_cost
        self._l2_port_free = l2_port_free
        self._dram_next_free = dram_next_free
        return (
            t + extra,
            port_cycles + extra,
            (l2_hits, l2_misses, dram_reads, dram_writes),
        )
