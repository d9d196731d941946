"""The RT unit: warp buffer, stack manager, memory scheduler, op units.

Executes warps transactionally: one *traversal iteration* per scheduled
warp performs (1) node fetch for every active lane through the L1/L2/DRAM
hierarchy, (2) intersection tests in the box/triangle units, (3) the stack
update, replaying each lane's pushes/pops through the configured stack
model and pricing the resulting shared/global request chains position by
position (chains are sequential per lane, parallel across lanes — paper
section VI-A).

Scheduling is greedy-then-oldest across up to ``max_warps_per_rt_unit``
resident warps: the unit's issue stages serialize (``pipeline_free``),
while memory waits overlap across warps — which is exactly the latency
hiding that makes *bandwidth*, not raw latency, the cost of spill traffic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.counters import Counters
from repro.gpu.hierarchy import MemoryHierarchy
from repro.gpu.sharedmem import SharedMemorySim
from repro.gpu.warp import Warp
from repro.guard.config import GuardConfig
from repro.guard.invariants import InvariantChecker
from repro.guard.watchdog import ProgressWatchdog
from repro.stack.base import StackModel
from repro.stack.ops import MemoryOp, MemSpace, OpKind
from repro.stack.sms import take_realloc_stats
from repro.trace.events import NodeKind, RayTrace


def verify_pop(
    trace: RayTrace, cursor: int, lane: int, value: int,
    sm_id: int, warp_id: int,
) -> None:
    """A popped entry must be the node the ray visits next.

    ``value`` is what ``lane`` popped at step ``cursor`` of ``trace``.
    Both timing cores raise through here: the stepped unit on every
    pop, the vector unit for the first mismatch its plan recorded.
    """
    if cursor + 1 >= len(trace.steps):
        raise SimulationError(
            f"ray {trace.ray_id} popped at its final step",
            sm_id=sm_id, warp_id=warp_id, lane=lane, component="stack",
        )
    expected = trace.steps[cursor + 1].address
    if value != expected:
        raise SimulationError(
            f"ray {trace.ray_id}: popped {value:#x}, expected {expected:#x} "
            f"— stack model corrupted LIFO order",
            sm_id=sm_id, warp_id=warp_id, lane=lane, component="stack",
        )


class RTUnit:
    """One SM's ray-tracing acceleration unit."""

    def __init__(
        self,
        config: GPUConfig,
        hierarchy: MemoryHierarchy,
        counters: Counters,
        sm_id: int = 0,
        verify_pops: bool = True,
        guard: Optional[GuardConfig] = None,
        strategy=None,
    ) -> None:
        from repro.traversal.registry import resolve_strategy

        self.config = config
        self.hierarchy = hierarchy
        self.counters = counters
        self.sm_id = sm_id
        self.verify_pops = verify_pops
        self.guard = guard
        #: The traversal strategy owns lane-state construction (which
        #: stack model each warp slot replays against, or none at all).
        self.strategy = resolve_strategy(strategy)
        self.sharedmem = SharedMemorySim(config)
        self._stacks: List[StackModel] = self.strategy.make_unit_stacks(
            config, sm_id=sm_id
        )
        if len(self._stacks) != config.max_warps_per_rt_unit:
            raise SimulationError(
                f"strategy {self.strategy.name!r} built "
                f"{len(self._stacks)} lane-state models for "
                f"{config.max_warps_per_rt_unit} warp slots",
                sm_id=sm_id, component="strategy",
            )
        # Integrity layer (opt-in).
        self._checker: Optional[InvariantChecker] = None
        self._watchdog: Optional[ProgressWatchdog] = None
        if guard is not None:
            self._checker = InvariantChecker(counters, sm_id=sm_id)
            self._stacks = [
                self._checker.wrap(stack, slot)
                for slot, stack in enumerate(self._stacks)
            ]
            self._watchdog = ProgressWatchdog(
                sm_id=sm_id,
                max_cycles=guard.max_cycles,
                stall_window=guard.stall_window,
            )

    # ------------------------------------------------------------------
    # top-level run loop
    # ------------------------------------------------------------------

    def run(self, warps: Sequence[Warp]) -> int:
        """Execute all warps; returns the completion cycle."""
        pending: Deque[Warp] = deque(warps)
        resident: List[Tuple[Warp, int]] = []  # (warp, slot)
        free_slots = list(range(self.config.max_warps_per_rt_unit))
        completion = 0
        pipeline_free = 0
        greedy_warp_id: Optional[int] = None

        def admit(now: int) -> None:
            while pending and free_slots:
                slot = free_slots.pop(0)
                warp = pending.popleft()
                self._stacks[slot].reset()
                warp.ready_time = now
                resident.append((warp, slot))

        admit(0)
        while resident:
            warp, slot = self._pick_warp(resident, greedy_warp_id)
            greedy_warp_id = warp.warp_id
            start = max(warp.ready_time, pipeline_free)
            if self._checker is not None:
                self._checker.begin_iteration(cycle=start, warp_id=warp.warp_id)
            end, issue_cycles = self._execute_iteration(warp, self._stacks[slot], start)
            pipeline_free = start + issue_cycles
            warp.ready_time = end
            completion = max(completion, end)
            if self._checker is not None:
                self._checker.verify(cycle=end, warp_id=warp.warp_id, slot=slot)
            if self._watchdog is not None:
                self._watchdog.observe(
                    warp, slot, start, end, stack=self._stacks[slot]
                )
            if warp.done:
                resident.remove((warp, slot))
                free_slots.append(slot)
                admit(end)
        return completion

    def _pick_warp(
        self, resident: List[Tuple[Warp, int]], greedy_warp_id: Optional[int]
    ) -> Tuple[Warp, int]:
        """GTO: stick with the greedy warp when it is as ready as any."""
        best = min(resident, key=lambda pair: pair[0].ready_time)
        min_ready = best[0].ready_time
        if greedy_warp_id is not None:
            for warp, slot in resident:
                if warp.warp_id == greedy_warp_id and warp.ready_time <= min_ready:
                    return warp, slot
        # Oldest (lowest id) among the most-ready.
        candidates = [p for p in resident if p[0].ready_time == min_ready]
        return min(candidates, key=lambda pair: pair[0].warp_id)

    # ------------------------------------------------------------------
    # one traversal iteration of one warp
    # ------------------------------------------------------------------

    def _execute_iteration(
        self, warp: Warp, stack: StackModel, start: int
    ) -> Tuple[int, int]:
        """Run one lockstep step; returns (end_time, pipeline_issue_cycles)."""
        config = self.config
        counters = self.counters
        active = warp.active_lanes()
        if not active:
            raise SimulationError(
                "scheduled a warp with no active lanes",
                sm_id=self.sm_id, warp_id=warp.warp_id,
                component="scheduler",
            )

        # Phase 1: node fetch.  The memory scheduler coalesces the active
        # lanes' node reads into unique cache lines, issuing one per cycle.
        traces = warp.traces
        cursors = warp.cursors
        steps = [traces[lane].steps[cursors[lane]] for lane in active]
        lines: Dict[int, None] = {}
        max_box_tests = 0
        max_tri_tests = 0
        line_bytes = config.line_bytes
        for step in steps:
            # The lines of MemoryHierarchy.lines_of, in order.
            address = step.address
            size = step.size_bytes
            end = address + (size if size > 1 else 1)
            line = address - address % line_bytes
            while line < end:
                lines[line] = None
                line += line_bytes
            if step.kind is NodeKind.INTERNAL:
                if step.tests > max_box_tests:
                    max_box_tests = step.tests
            elif step.tests > max_tri_tests:
                max_tri_tests = step.tests
        fetch_done = self.hierarchy.fetch_lines(lines, start, counters)
        counters.node_fetch_lines += len(lines)
        fetch_port_cycles = len(lines) * config.l1_port_cycles
        # Concurrent shading/texture traffic from the SM's sub-cores
        # occupies the shared L1D (see GPUConfig.shader_pollution_lines).
        self.hierarchy.pollute(config.shader_pollution_lines, start, counters)

        # Phase 2: intersection tests in the RT unit's operation units.
        intersect_cycles = (
            max_box_tests * config.box_test_cycles
            + max_tri_tests * config.tri_test_cycles
        )
        t = fetch_done + intersect_cycles

        # Phase 3: stack update.  Replay pushes/pops, then price the chains.
        #
        # The stack manager is its own unit (paper Fig. 11): its request
        # chains run concurrently with the warp's next node fetch.  The
        # popped next-node address is always already in the RB stack, so
        # the warp only stalls on the manager when the *next* iteration's
        # stack phase arrives before the previous chain finished
        # (warp.stack_free), which is exactly what happens when every
        # iteration overflows.
        chains: List[Tuple[Sequence[MemoryOp], int]] = []
        instructions = 0
        verify_pops = self.verify_pops
        for lane, step in zip(active, steps):
            # Accumulate each lane's chain into one op list instead of
            # merge()-ing a fresh StackActivity per push/pop; the merged
            # chain is identical (ops concatenate in issue order, extra
            # cycles sum).
            ops: Optional[list] = None
            extra_cycles = 0
            for address in step.pushes:
                push_activity = stack.push(lane, address)
                if push_activity.ops:
                    if ops is None:
                        ops = list(push_activity.ops)
                    else:
                        ops.extend(push_activity.ops)
                extra_cycles += push_activity.extra_cycles
            if step.popped:
                value, pop_activity = stack.pop(lane)
                if pop_activity.ops:
                    if ops is None:
                        ops = list(pop_activity.ops)
                    else:
                        ops.extend(pop_activity.ops)
                extra_cycles += pop_activity.extra_cycles
                if verify_pops:
                    verify_pop(
                        traces[lane], cursors[lane], lane, value,
                        self.sm_id, warp.warp_id,
                    )
            if ops is not None:
                chains.append((ops, extra_cycles))
            elif extra_cycles:
                chains.append(((), extra_cycles))
            instructions += 1 + step.tests
        counters.instructions += instructions
        stack_start = max(t, warp.stack_free)
        if chains:
            # Lanes whose stack phase generated no traffic are omitted from
            # ``chains`` — an all-empty chain contributes nothing at any
            # position and zero extra cycles, so pricing only the active
            # ones (or skipping pricing entirely) is exact.
            stack_end, stack_port_cycles = self._price_stack_chains(
                chains, stack_start
            )
        else:
            stack_end, stack_port_cycles = stack_start, 0
        warp.stack_free = stack_end
        # The warp itself is ready once compute and the stack-issue slots
        # clear; the chain's memory latency overlaps the next iteration.
        t = max(t, stack_start + stack_port_cycles)

        # Advance cursors; lanes that drain their traces retire and (under
        # SMS reallocation) free their SH stacks for borrowing.
        surviving: List[int] = []
        for lane in active:
            cursor = cursors[lane] + 1
            cursors[lane] = cursor
            if cursor >= len(traces[lane].steps):
                stack.finish(lane)
            else:
                surviving.append(lane)
        warp.retire_to(surviving)

        borrows, flushes, forced_flushes = take_realloc_stats(stack)
        counters.borrows += borrows
        counters.flushes += flushes
        counters.forced_flushes += forced_flushes
        counters.warp_steps += 1
        issue_cycles = fetch_port_cycles + intersect_cycles + stack_port_cycles
        return t, issue_cycles

    def _price_stack_chains(
        self, chains: List[Tuple[Sequence[MemoryOp], int]], t: int
    ) -> Tuple[int, int]:
        """Cost the per-lane ``(ops, extra_cycles)`` chains position by position.

        Per the paper, a lane's chain is strictly sequential; across lanes
        the memory scheduler runs position ``p`` of every chain together:
        shared ops become one banked transaction (serialized only by bank
        conflicts), while global ops target thread-specific spill addresses
        that never coalesce — each is a separate L1 transaction occupying
        the memory port.  Stores complete asynchronously (store buffer);
        loads block the chain.

        Returns ``(end_time, port_cycles)`` where ``port_cycles`` is the
        pipeline occupancy this stack phase adds (not hidden by other
        warps).
        """
        counters = self.counters
        config = self.config
        access_line = self.hierarchy.access_line
        lines_of = self.hierarchy.lines_of
        transaction_cycles = self.sharedmem.transaction_cycles
        # Port occupancy of a shared transaction: one slot per conflict
        # replay (the cost above the base latency) plus the base slot.
        shared_port_offset = config.shared_port_cycles - config.shared_latency
        port = config.l1_port_cycles
        policy = config.spill_cache_policy
        shared_loads = 0
        shared_stores = 0
        global_loads = 0
        global_stores = 0
        port_cycles = 0
        max_len = 0
        extra = 0
        for ops, extra_cycles in chains:
            if len(ops) > max_len:
                max_len = len(ops)
            if extra_cycles > extra:
                extra = extra_cycles
        for position in range(max_len):
            shared_ops = []
            global_ops = []
            for ops, _ in chains:
                if position < len(ops):
                    op = ops[position]
                    if op.space is MemSpace.SHARED:
                        shared_ops.append(op)
                        if op.kind is OpKind.LOAD:
                            shared_loads += 1
                        else:
                            shared_stores += 1
                    else:
                        global_ops.append(op)
                        if op.kind is OpKind.LOAD:
                            global_loads += 1
                        else:
                            global_stores += 1
            shared_cost = 0
            if shared_ops:
                shared_cost = transaction_cycles(shared_ops, counters)
                port_cycles += shared_cost + shared_port_offset
            global_cost = 0
            issue = t
            for op in global_ops:
                is_store = op.kind is OpKind.STORE
                done = t
                for line in lines_of(op.address, op.size_bytes):
                    line_done = access_line(line, issue, is_store, counters, policy)
                    if line_done > done:
                        done = line_done
                issue += port
                # Store buffer: a store costs its port slot, no completion wait.
                cost = issue - t if is_store else done - t
                if cost > global_cost:
                    global_cost = cost
            port_cycles += len(global_ops) * port
            t += shared_cost if shared_cost > global_cost else global_cost
        counters.stack_shared_loads += shared_loads
        counters.stack_shared_stores += shared_stores
        counters.stack_global_loads += global_loads
        counters.stack_global_stores += global_stores
        return t + extra, port_cycles + extra
