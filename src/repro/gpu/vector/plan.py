"""Per-warp replay plans, priced as they are built.

The key structural fact the vector backend exploits: the stepped RT
unit advances every active lane's cursor unconditionally on every
iteration, so *which* lanes are active at iteration ``k``, which node
lines they fetch, how many tests they run and which stack ops they
emit are all pure functions of the recorded traces and the stack-model
configuration — none of it depends on when the scheduler runs the
iteration.  Only the memory-system state (L1/L2/DRAM, port queues) and
the inter-warp arbitration are timing-coupled; the runtime prices
memory through the stepped :class:`~repro.gpu.hierarchy.MemoryHierarchy`.

:func:`warp_plan` therefore replays a warp once, in one pass over its
lanes' steps, against a *canonical* (slot 0, SM 0) stack model and
records, per iteration:

* the deduplicated node-line tuple (stepped lane order preserved) and
  its L1 port occupancy;
* the intersection cycles, from the box-test and triangle-test maxima;
* the stack chains, priced position by position — for chains with only
  shared-memory ops the whole pricing collapses to two scalars (bank
  conflicts priced by ``SharedMemorySim.conflict_degree``, the stepped
  model), while positions touching global spill memory keep an op list
  the runtime sends through the memory hierarchy;
* order-independent counter totals (instructions, stack traffic,
  shared transactions, borrow/flush harvest) applied in one shot.

Slot invariance makes the canonical replay sound: shared-stack bank
conflict degrees are unchanged by the per-slot layout base (always a
multiple of the bank row), and global spill addresses shift by exactly
``warp_index * warp_bytes`` — a whole number of cache lines — so the
runtime rebases the precomputed line addresses per slot.

Plans are cached on the warp's first trace (``RayTrace._vector_cache``),
keyed by the stack-model and cost fields of the configuration, the
strategy and the lanes' ray ids.

When a configuration or workload falls outside the plan's validity
envelope (guarded runs, inter-warp reallocation, a stack model that has
not opted in, a spill stride that is not line-aligned, a spill op that
spans lines), :class:`VectorUnsupported` is raised *before any counter
is touched*, and :class:`~repro.gpu.simulator.GPUSimulator` falls back
to the stepped oracle for the whole run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.gpu.config import GPUConfig
from repro.gpu.sharedmem import SharedMemorySim
from repro.gpu.warp import Warp
from repro.stack.base import ENTRY_BYTES
from repro.stack.ops import MemSpace, OpKind
from repro.stack.sms import take_realloc_stats
from repro.stack.spill import SPILL_SLOTS_PER_LANE
from repro.trace.events import NodeKind, RayTrace

__all__ = [
    "VectorUnsupported",
    "WarpPlan",
    "trace_cache",
    "warp_plan",
    "vector_unsupported_reason",
]

#: Sampled warps get their plan replay cross-checked against each
#: lane's push/pop count by the guard layer's vector sampler (one warp
#: in this many).
SAMPLE_STRIDE = 16


class VectorUnsupported(ReproError):
    """This run cannot use the vector backend; fall back to stepped.

    Raised only during eligibility checks and plan building — never
    after simulation state has been touched — so the caller can retry
    the whole run on the stepped path.
    """


def vector_unsupported_reason(
    config: GPUConfig, guard=None
) -> Optional[str]:
    """Static (pre-trace) eligibility: why vector can't run, or None.

    The dynamic checks (stack-model opt-in, line-aligned spill
    stride, spill ops within one line) happen at plan build, where the
    traces are known.
    """
    if guard is not None:
        return "guarded runs use the stepped oracle"
    if config.inter_warp_realloc:
        return "inter-warp reallocation couples warp slots"
    return None


def trace_cache(trace: RayTrace) -> dict:
    """The trace's vector-artifact cache dict, created on first use."""
    try:
        return trace._vector_cache
    except AttributeError:
        cache: dict = {}
        trace._vector_cache = cache
        return cache


class WarpPlan:
    """One warp's replay, priced under one configuration.

    ``iters[k]`` packs iteration ``k`` for the runtime hot loop (one
    index and one unpack per iteration) as ``(lines, fetch_port,
    intersect, stack_delta, stack_port, global_chain)``.
    ``global_chain`` is ``None`` when the stack phase touched only
    shared memory and ``stack_delta``/``stack_port`` price it whole;
    otherwise it is ``(positions, extra)`` with one ``(shared_cost,
    shared_port, global_ops)`` record per chain position.  ``mismatch``
    is the first failed pop as ``(lane, step, popped_value)``.
    """

    __slots__ = ("n_iters", "iters", "totals", "warp_bytes", "mismatch")

    def __init__(self) -> None:
        self.n_iters = 0
        self.iters: List[tuple] = []
        self.totals: Dict[str, int] = {}
        self.warp_bytes = 0
        self.mismatch: Optional[Tuple[int, int, int]] = None


def warp_plan(
    warp: Warp, config: GPUConfig, strategy, sample: bool = False
) -> WarpPlan:
    """The (cached) plan for ``warp`` under ``config``/``strategy``."""
    host = next(
        (t for t in warp.traces if t is not None and t.steps), None
    )
    if host is None:
        return _build_plan(warp, config, strategy, sample)
    key = (
        "plan",
        config.rb_stack_entries, config.sh_stack_entries,
        config.skewed_bank_access, config.intra_warp_realloc,
        config.max_borrows, config.max_flushes,
        config.warp_size, config.line_bytes,
        config.l1_port_cycles, config.box_test_cycles,
        config.tri_test_cycles, config.shared_latency,
        config.bank_conflict_penalty, config.shared_port_cycles,
        strategy.name,
        tuple(t.ray_id for t in warp.traces if t is not None),
    )
    cache = trace_cache(host)
    plan = cache.get(key)
    if plan is None:
        plan = _build_plan(warp, config, strategy, sample)
        cache[key] = plan
    return plan


def _build_plan(
    warp: Warp, config: GPUConfig, strategy, sample: bool
) -> WarpPlan:
    """Replay ``warp`` against the canonical slot-0 stack model."""
    traces = warp.traces
    lanes = [i for i, t in enumerate(traces) if t is not None and t.steps]
    plan = WarpPlan()
    if not lanes:
        return plan
    model = strategy.make_unit_stacks(config, sm_id=0)[0]
    if not getattr(model, "vector_replayable", False):
        raise VectorUnsupported(
            f"stack model {type(model).__name__} has not opted into "
            f"canonical replay"
        )
    line_bytes = config.line_bytes
    warp_bytes = SPILL_SLOTS_PER_LANE * config.warp_size * ENTRY_BYTES
    if warp_bytes % line_bytes:
        raise VectorUnsupported(
            "spill stride is not line-aligned; per-slot rebasing invalid"
        )
    model.reset()
    conflict_degree = SharedMemorySim(config).conflict_degree
    sampler = None
    depth: Optional[Dict[int, int]] = None
    if sample:
        from repro.guard.vector import VectorPlanSampler

        sampler = VectorPlanSampler(warp.warp_id, config)
        depth = dict.fromkeys(lanes, 0)

    port = config.l1_port_cycles
    box_cycles = config.box_test_cycles
    tri_cycles = config.tri_test_cycles
    latency = config.shared_latency
    penalty = config.bank_conflict_penalty
    shared_port = config.shared_port_cycles
    intern: Dict[int, int] = {}
    iters: List[tuple] = []
    mismatch = None
    instructions = 0
    shared_loads = shared_stores = 0
    global_loads = global_stores = 0
    shared_transactions = 0
    conflict_delay = 0
    node_fetch_lines = 0
    SHARED = MemSpace.SHARED
    LOAD = OpKind.LOAD
    INTERNAL = NodeKind.INTERNAL

    # (lane, steps) of the lanes still active, in lane order.
    active = [(lane, traces[lane].steps) for lane in lanes]
    k = 0
    while active:
        lines: Dict[int, None] = {}
        chains: List[Tuple[Optional[list], int]] = []
        box_max = tri_max = 0
        for lane, steps in active:
            step = steps[k]
            address = step.address
            size = step.size_bytes
            first = address - address % line_bytes
            last = (
                (address + (size if size > 0 else 1) - 1)
                // line_bytes * line_bytes
            )
            line = first
            while line <= last:
                cached = intern.get(line)
                if cached is None:
                    intern[line] = line
                    cached = line
                lines[cached] = None
                line += line_bytes
            tests = step.tests
            instructions += 1 + tests
            if step.kind is INTERNAL:
                if tests > box_max:
                    box_max = tests
            elif tests > tri_max:
                tri_max = tests
            ops: Optional[list] = None
            extra_cycles = 0
            for push_address in step.pushes:
                activity = model.push(lane, push_address)
                if activity.ops:
                    if ops is None:
                        ops = list(activity.ops)
                    else:
                        ops.extend(activity.ops)
                extra_cycles += activity.extra_cycles
            if step.popped:
                value, activity = model.pop(lane)
                if activity.ops:
                    if ops is None:
                        ops = list(activity.ops)
                    else:
                        ops.extend(activity.ops)
                extra_cycles += activity.extra_cycles
                if mismatch is None and (
                    k + 1 >= len(steps) or value != steps[k + 1].address
                ):
                    mismatch = (lane, k, value)
            if depth is not None:
                depth[lane] += len(step.pushes) - step.popped
            if ops is not None or extra_cycles:
                chains.append((ops if ops is not None else [], extra_cycles))
        line_tuple = tuple(lines)
        node_fetch_lines += len(line_tuple)

        stack_delta = stack_port = 0
        global_chain = None
        if chains:
            max_len = 0
            extra = 0
            for ops, extra_cycles in chains:
                if len(ops) > max_len:
                    max_len = len(ops)
                if extra_cycles > extra:
                    extra = extra_cycles
            positions = []
            has_global = False
            for position in range(max_len):
                shared_ops = []
                gops: List[tuple] = []
                for ops, _ in chains:
                    if position < len(ops):
                        op = ops[position]
                        if op.space is SHARED:
                            shared_ops.append(op)
                            if op.kind is LOAD:
                                shared_loads += 1
                            else:
                                shared_stores += 1
                        else:
                            if op.kind is LOAD:
                                global_loads += 1
                            else:
                                global_stores += 1
                            op_first = op.address - op.address % line_bytes
                            op_last = (
                                (op.address + op.size_bytes - 1)
                                // line_bytes * line_bytes
                            )
                            if op_first != op_last:
                                raise VectorUnsupported(
                                    "spill op spans cache lines"
                                )
                            gops.append((op.kind is not LOAD, op_first))
                cost = inc = 0
                if shared_ops:
                    replays = (conflict_degree(shared_ops) - 1) * penalty
                    shared_transactions += 1
                    conflict_delay += replays
                    cost = latency + replays
                    inc = replays + shared_port
                if gops:
                    has_global = True
                positions.append((cost, inc, tuple(gops)))
                stack_delta += cost
                stack_port += inc
            if has_global:
                global_chain = (tuple(positions), extra)
                stack_delta = stack_port = 0
            else:
                stack_delta += extra
                stack_port += extra
        iters.append((
            line_tuple, len(line_tuple) * port,
            box_max * box_cycles + tri_max * tri_cycles,
            stack_delta, stack_port, global_chain,
        ))

        if sampler is not None and k % sampler.stride == 0:
            sampler.check_iteration(
                model, {lane: depth[lane] for lane, _ in active}, k
            )
        k += 1
        survivors = []
        for entry in active:
            if len(entry[1]) > k:
                survivors.append(entry)
            else:
                model.finish(entry[0])
        active = survivors

    totals = {
        "instructions": instructions,
        "warp_steps": k,
        "node_fetch_lines": node_fetch_lines,
        "stack_shared_loads": shared_loads,
        "stack_shared_stores": shared_stores,
        "stack_global_loads": global_loads,
        "stack_global_stores": global_stores,
        "bank_conflict_delay_cycles": conflict_delay,
        "shared_transactions": shared_transactions,
    }
    (
        totals["borrows"], totals["flushes"], totals["forced_flushes"]
    ) = take_realloc_stats(model)
    if sampler is not None:
        sampler.check_totals(
            totals, max(len(traces[lane].steps) for lane in lanes)
        )

    plan.n_iters = k
    plan.iters = iters
    plan.totals = totals
    plan.warp_bytes = warp_bytes
    plan.mismatch = mismatch
    return plan
