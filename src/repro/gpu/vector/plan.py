"""Per-warp replay plans: the timing-independent half of an iteration.

The key structural fact the vector backend exploits: the stepped RT
unit advances every active lane's cursor unconditionally on every
iteration, so *which* lanes are active at iteration ``k``, which node
lines they fetch, how many tests they run and which stack ops they
emit are all pure functions of the recorded traces and the stack-model
configuration — none of it depends on when the scheduler runs the
iteration.  Only the memory-system state (L1/L2/DRAM, port queues) and
the inter-warp arbitration are timing-coupled; the runtime prices
memory through the stepped :class:`~repro.gpu.hierarchy.MemoryHierarchy`.

:func:`warp_plan` therefore replays a warp once against a *canonical*
(slot 0, SM 0) stack model and precomputes, per iteration:

* the deduplicated node-line tuple (stepped lane order preserved);
* intersection maxima / instruction counts (numpy-batched via
  :func:`~repro.gpu.vector.soa.batch_warp_state`);
* the stack-chain *positions* — for chains with only shared-memory
  ops the whole pricing collapses to two precomputed scalars (bank
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

Plans are cached on the warp's first trace (``RayTrace._vector_cache``)
and priced ("bound") per pricing-parameter key, so sweeps that re-run
the same workload under different latencies replay once.

When a configuration or workload falls outside the plan's validity
envelope (guarded runs, inter-warp reallocation, a stack model that has
not opted in, a spill stride that is not line-aligned, a spill op that
spans lines), :class:`VectorUnsupported` is raised *before any counter
is touched*, and :class:`~repro.gpu.simulator.GPUSimulator` falls back
to the stepped oracle for the whole run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError, SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.sharedmem import SharedMemorySim
from repro.gpu.warp import Warp
from repro.stack.base import ENTRY_BYTES
from repro.stack.ops import MemSpace, OpKind
from repro.stack.sms import SmsStack
from repro.stack.spill import SPILL_SLOTS_PER_LANE
from repro.gpu.vector.soa import batch_warp_state, trace_cache

__all__ = [
    "VectorUnsupported",
    "RawPlan",
    "BoundPlan",
    "warp_plan",
    "vector_unsupported_reason",
]

#: Sampled warps get their plan replay cross-checked against the SoA
#: mirror by the guard layer's vector sampler (one warp in this many).
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


class RawPlan:
    """Pricing-independent replay of one warp (see module docstring)."""

    __slots__ = (
        "n_iters", "lines", "n_lines", "box_max", "tri_max",
        "simple_iters", "simple_extra", "deg_flat", "deg_iter",
        "complex_raw", "totals_raw", "conflict_extra", "warp_bytes",
        "mismatch", "_bind_cache",
    )

    def __init__(self) -> None:
        self.n_iters = 0
        self.lines: List[tuple] = []
        self.n_lines = np.zeros(0, dtype=np.int64)
        self.box_max = np.zeros(0, dtype=np.int64)
        self.tri_max = np.zeros(0, dtype=np.int64)
        self.simple_iters = np.zeros(0, dtype=np.int64)
        self.simple_extra = np.zeros(0, dtype=np.int64)
        self.deg_flat = np.zeros(0, dtype=np.int64)
        self.deg_iter = np.zeros(0, dtype=np.int64)
        self.complex_raw: Dict[int, tuple] = {}
        self.totals_raw: Dict[str, int] = {}
        self.conflict_extra = 0
        self.warp_bytes = 0
        self.mismatch: Optional[tuple] = None
        self._bind_cache: Dict[tuple, "BoundPlan"] = {}

    def bound(self, config: GPUConfig) -> "BoundPlan":
        """Price this plan under ``config`` (memoized per pricing key)."""
        key = (
            config.l1_port_cycles, config.box_test_cycles,
            config.tri_test_cycles, config.shared_latency,
            config.bank_conflict_penalty, config.shared_port_cycles,
        )
        plan = self._bind_cache.get(key)
        if plan is None:
            plan = BoundPlan(self, config)
            self._bind_cache[key] = plan
        return plan


class BoundPlan:
    """A :class:`RawPlan` priced under one set of cost parameters.

    Everything the runtime loop consumes is a plain Python list (numpy
    scalar extraction is slower than list indexing at this grain); the
    numpy work happens once here, batched over all iterations.
    """

    __slots__ = ("n_iters", "totals", "warp_bytes", "mismatch", "iters")

    def __init__(self, raw: RawPlan, config: GPUConfig) -> None:
        length = raw.n_iters
        self.n_iters = length
        self.warp_bytes = raw.warp_bytes
        self.mismatch = raw.mismatch
        fetch_port = (raw.n_lines * config.l1_port_cycles).tolist()
        intersect = (
            raw.box_max * config.box_test_cycles
            + raw.tri_max * config.tri_test_cycles
        ).tolist()
        latency = config.shared_latency
        penalty = config.bank_conflict_penalty
        shared_port = config.shared_port_cycles
        sdelta = np.zeros(length, dtype=np.int64)
        sport = np.zeros(length, dtype=np.int64)
        if raw.deg_flat.size:
            replays = (raw.deg_flat - 1) * penalty
            np.add.at(sdelta, raw.deg_iter, latency + replays)
            np.add.at(sport, raw.deg_iter, replays + shared_port)
        if raw.simple_iters.size:
            sdelta[raw.simple_iters] += raw.simple_extra
            sport[raw.simple_iters] += raw.simple_extra
        cplx: List[Optional[tuple]] = [None] * length
        for k, (positions, extra) in sorted(raw.complex_raw.items()):
            bound = []
            for degree, gops in positions:
                if degree:
                    cost = latency + (degree - 1) * penalty
                    inc = (degree - 1) * penalty + shared_port
                else:
                    cost = 0
                    inc = 0
                bound.append((cost, inc, gops))
            cplx[k] = (tuple(bound), extra)
        totals = dict(raw.totals_raw)
        totals["bank_conflict_delay_cycles"] = raw.conflict_extra * penalty
        self.totals = totals
        # Packed per-iteration records for the runtime hot loop: one
        # index + one unpack per iteration.
        self.iters = list(zip(
            raw.lines, fetch_port, intersect,
            sdelta.tolist(), sport.tolist(), cplx,
        ))


def warp_plan(
    warp: Warp, config: GPUConfig, strategy, sample: bool = False
) -> RawPlan:
    """The (cached) raw plan for ``warp`` under ``config``/``strategy``."""
    host = next(
        (t for t in warp.traces if t is not None and t.steps), None
    )
    if host is None:
        return _build_raw(warp, config, strategy, sample)
    key = (
        "plan",
        config.rb_stack_entries, config.sh_stack_entries,
        config.skewed_bank_access, config.intra_warp_realloc,
        config.max_borrows, config.max_flushes,
        config.warp_size, config.line_bytes,
        strategy.name,
        tuple(t.ray_id for t in warp.traces if t is not None),
    )
    cache = trace_cache(host)
    raw = cache.get(key)
    if raw is None:
        raw = _build_raw(warp, config, strategy, sample)
        cache[key] = raw
    return raw


def _build_raw(
    warp: Warp, config: GPUConfig, strategy, sample: bool
) -> RawPlan:
    """Replay ``warp`` against the canonical slot-0 stack model."""
    state = batch_warp_state(warp.traces)
    plan = RawPlan()
    if not state.lanes:
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
    if sample:
        from repro.guard.vector import VectorPlanSampler

        sampler = VectorPlanSampler(warp.warp_id, config)

    lanes = state.lanes
    lens = state.lens.tolist()
    traces = warp.traces
    n_iters = state.n_iters
    intern: Dict[int, int] = {}
    lines_out: List[tuple] = []
    n_lines = np.zeros(n_iters, dtype=np.int64)
    simple_iters: List[int] = []
    simple_extra: List[int] = []
    deg_flat: List[int] = []
    deg_iter: List[int] = []
    complex_raw: Dict[int, tuple] = {}
    mismatch = None
    shared_loads = shared_stores = 0
    global_loads = global_stores = 0
    shared_transactions = 0
    conflict_extra = 0
    node_fetch_lines = 0
    SHARED = MemSpace.SHARED
    LOAD = OpKind.LOAD

    for k in range(n_iters):
        lines: Dict[int, None] = {}
        chains: List[Tuple[Optional[list], int]] = []
        for row, lane in enumerate(lanes):
            if lens[row] <= k:
                continue
            trace = traces[lane]
            step = trace.steps[k]
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
                if mismatch is None:
                    if k + 1 >= lens[row]:
                        mismatch = ("final", trace.ray_id, lane, 0, 0)
                    elif value != trace.steps[k + 1].address:
                        mismatch = (
                            "order", trace.ray_id, lane, value,
                            trace.steps[k + 1].address,
                        )
            if ops is not None or extra_cycles:
                chains.append((ops if ops is not None else [], extra_cycles))
        line_tuple = tuple(lines)
        lines_out.append(line_tuple)
        n_lines[k] = len(line_tuple)
        node_fetch_lines += len(line_tuple)

        if chains:
            max_len = 0
            for ops, _ in chains:
                if len(ops) > max_len:
                    max_len = len(ops)
            extra = 0
            for _, extra_cycles in chains:
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
                degree = 0
                if shared_ops:
                    degree = conflict_degree(shared_ops)
                    shared_transactions += 1
                    conflict_extra += degree - 1
                if gops:
                    has_global = True
                positions.append((degree, tuple(gops)))
            if has_global:
                complex_raw[k] = (tuple(positions), extra)
            else:
                simple_iters.append(k)
                simple_extra.append(extra)
                for degree, _ in positions:
                    deg_flat.append(degree)
                    deg_iter.append(k)

        if sampler is not None and k % sampler.stride == 0:
            sampler.check_iteration(model, state, k)
        for row, lane in enumerate(lanes):
            if lens[row] == k + 1:
                model.finish(lane)

    instructions = int(state.instructions.sum())
    totals = {
        "instructions": instructions,
        "warp_steps": n_iters,
        "node_fetch_lines": node_fetch_lines,
        "stack_shared_loads": shared_loads,
        "stack_shared_stores": shared_stores,
        "stack_global_loads": global_loads,
        "stack_global_stores": global_stores,
        "shared_transactions": shared_transactions,
        "borrows": 0,
        "flushes": 0,
        "forced_flushes": 0,
    }
    harvest = getattr(model, "unwrapped", model)
    if isinstance(harvest, SmsStack):
        totals["borrows"] = harvest.borrow_count
        totals["flushes"] = harvest.flush_count
        totals["forced_flushes"] = harvest.forced_flush_count
    if sampler is not None:
        sampler.check_totals(totals, state)

    plan.n_iters = n_iters
    plan.lines = lines_out
    plan.n_lines = n_lines
    plan.box_max = state.box_max
    plan.tri_max = state.tri_max
    plan.simple_iters = np.asarray(simple_iters, dtype=np.int64)
    plan.simple_extra = np.asarray(simple_extra, dtype=np.int64)
    plan.deg_flat = np.asarray(deg_flat, dtype=np.int64)
    plan.deg_iter = np.asarray(deg_iter, dtype=np.int64)
    plan.complex_raw = complex_raw
    plan.totals_raw = totals
    plan.conflict_extra = conflict_extra
    plan.warp_bytes = warp_bytes
    plan.mismatch = mismatch
    return plan


def raise_pop_mismatch(
    mismatch: tuple, sm_id: int, warp_id: int
) -> None:
    """Re-raise a recorded pop-verification failure the stepped way."""
    kind, ray_id, lane, value, expected = mismatch
    if kind == "final":
        raise SimulationError(
            f"ray {ray_id} popped at its final step",
            sm_id=sm_id, warp_id=warp_id, lane=lane, component="stack",
        )
    raise SimulationError(
        f"ray {ray_id}: popped {value:#x}, expected {expected:#x} "
        f"— stack model corrupted LIFO order",
        sm_id=sm_id, warp_id=warp_id, lane=lane, component="stack",
    )
