"""Structure-of-arrays mirrors of trace and warp lane state.

The stepped RT unit walks ``RayTrace.steps`` object by object.  The
vector backend instead works from :class:`TraceSoA` — one contiguous
numpy array per ``Step`` field — and from :class:`WarpStateSoA`, which
stacks a warp's lanes into (lane, iteration) matrices so per-iteration
aggregates (activity masks, slab-test maxima, instruction counts, stack
depth) come out of whole-warp numpy reductions instead of per-lane
Python loops.

Both mirrors are pure derived data: :func:`pack_trace` /
:func:`unpack_trace` round-trip losslessly (property-tested in
``tests/gpu/test_vector_soa.py``), and the SoA is cached on the trace's
``_vector_cache`` slot so repeated runs over the same workload pack
once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.trace.events import NodeKind, RayTrace, Step

__all__ = [
    "TraceSoA",
    "WarpStateSoA",
    "pack_trace",
    "unpack_trace",
    "batch_warp_state",
    "trace_cache",
]


def trace_cache(trace: RayTrace) -> dict:
    """The trace's vector-artifact cache dict, created on first use."""
    try:
        return trace._vector_cache
    except AttributeError:
        cache: dict = {}
        trace._vector_cache = cache
        return cache


class TraceSoA:
    """One ray's event stream as parallel numpy columns.

    ``pushes`` is flattened CSR-style: step ``k``'s pushed addresses are
    ``pushes[push_off[k]:push_off[k + 1]]``.
    """

    __slots__ = (
        "n_steps", "address", "size_bytes", "tests", "is_internal",
        "popped", "push_off", "pushes",
    )

    def __init__(
        self,
        n_steps: int,
        address: np.ndarray,
        size_bytes: np.ndarray,
        tests: np.ndarray,
        is_internal: np.ndarray,
        popped: np.ndarray,
        push_off: np.ndarray,
        pushes: np.ndarray,
    ) -> None:
        self.n_steps = n_steps
        self.address = address
        self.size_bytes = size_bytes
        self.tests = tests
        self.is_internal = is_internal
        self.popped = popped
        self.push_off = push_off
        self.pushes = pushes


def pack_trace(trace: RayTrace) -> TraceSoA:
    """Build (or fetch the cached) SoA mirror of one trace."""
    cache = trace_cache(trace)
    soa = cache.get("soa")
    if soa is not None:
        return soa
    steps = trace.steps
    n = len(steps)
    address = np.fromiter(
        (s.address for s in steps), dtype=np.int64, count=n
    )
    size_bytes = np.fromiter(
        (s.size_bytes for s in steps), dtype=np.int64, count=n
    )
    tests = np.fromiter((s.tests for s in steps), dtype=np.int64, count=n)
    is_internal = np.fromiter(
        (s.kind is NodeKind.INTERNAL for s in steps), dtype=bool, count=n
    )
    popped = np.fromiter((s.popped for s in steps), dtype=bool, count=n)
    push_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter((len(s.pushes) for s in steps), dtype=np.int64, count=n),
        out=push_off[1:],
    )
    pushes = np.fromiter(
        (a for s in steps for a in s.pushes),
        dtype=np.int64,
        count=int(push_off[-1]),
    )
    soa = TraceSoA(
        n_steps=n,
        address=address,
        size_bytes=size_bytes,
        tests=tests,
        is_internal=is_internal,
        popped=popped,
        push_off=push_off,
        pushes=pushes,
    )
    cache["soa"] = soa
    return soa


def unpack_trace(
    soa: TraceSoA,
    ray_id: int = 0,
    pixel: int = 0,
    kind=None,
    hit_prim: int = -1,
    hit_t: float = float("inf"),
) -> RayTrace:
    """Reconstruct a :class:`RayTrace` from its SoA mirror.

    Inverse of :func:`pack_trace` over the step stream; the scalar ray
    metadata (id/pixel/kind/hit) is not part of the mirror and is passed
    through.
    """
    from repro.trace.events import RayKind

    if kind is None:
        kind = RayKind.PRIMARY
    address = soa.address.tolist()
    size_bytes = soa.size_bytes.tolist()
    tests = soa.tests.tolist()
    is_internal = soa.is_internal.tolist()
    popped = soa.popped.tolist()
    push_off = soa.push_off.tolist()
    pushes = soa.pushes.tolist()
    # Python slices clamp: a truncated or misaligned push_off would not
    # raise below, it would silently reconstruct short push lists —
    # dropped pushes, wrong stack depths, counters that stop conserving.
    # Fail loud at the boundary instead.
    if len(push_off) != soa.n_steps + 1:
        raise SimulationError(
            f"TraceSoA push_off has {len(push_off)} entries for "
            f"{soa.n_steps} steps (expected n_steps + 1)"
        )
    if soa.n_steps and push_off[-1] != len(pushes):
        raise SimulationError(
            f"TraceSoA push_off terminates at {push_off[-1]} but the "
            f"pushes payload holds {len(pushes)} entries"
        )
    steps = [
        Step(
            address=address[k],
            size_bytes=size_bytes[k],
            kind=NodeKind.INTERNAL if is_internal[k] else NodeKind.LEAF,
            tests=tests[k],
            pushes=pushes[push_off[k]:push_off[k + 1]],
            popped=popped[k],
        )
        for k in range(soa.n_steps)
    ]
    return RayTrace(
        ray_id=ray_id, pixel=pixel, kind=kind, steps=steps,
        hit_prim=hit_prim, hit_t=hit_t,
    )


class WarpStateSoA:
    """A warp's lane state stacked into (lane, iteration) matrices.

    Rows are the warp's populated lanes (``lanes[i]`` maps row ``i``
    back to its lane index); columns are traversal iterations.  The
    ``active`` mask reproduces the stepped scheduler's structural rule —
    lane ``i`` is active at iteration ``k`` iff ``k < lens[i]`` — and
    every per-iteration aggregate is a masked whole-warp reduction.
    ``depth`` is the lane's stack depth *after* iteration ``k`` (pushes
    minus pops, cumulative), which is what the vector-path invariant
    sampler cross-checks against the real stack models.
    """

    __slots__ = (
        "lanes", "lens", "n_iters", "active", "box_max", "tri_max",
        "instructions", "depth", "pending_ops",
    )

    def __init__(
        self,
        lanes: List[int],
        lens: np.ndarray,
        active: np.ndarray,
        box_max: np.ndarray,
        tri_max: np.ndarray,
        instructions: np.ndarray,
        depth: np.ndarray,
        pending_ops: np.ndarray,
    ) -> None:
        self.lanes = lanes
        self.lens = lens
        self.n_iters = int(lens.max()) if len(lanes) else 0
        self.active = active
        self.box_max = box_max
        self.tri_max = tri_max
        self.instructions = instructions
        self.depth = depth
        self.pending_ops = pending_ops


def batch_warp_state(
    traces: Sequence[Optional[RayTrace]],
) -> WarpStateSoA:
    """Pack a warp's lanes into one :class:`WarpStateSoA`.

    ``traces`` is the warp's full lane list (``None`` padding included);
    empty traces are never active and are excluded like the stepped
    ``Warp.active_lanes`` excludes them.
    """
    lanes = [
        i for i, t in enumerate(traces) if t is not None and t.steps
    ]
    soas = [pack_trace(traces[i]) for i in lanes]
    n = len(lanes)
    if n == 0:
        empty_i = np.zeros((0, 0), dtype=np.int64)
        return WarpStateSoA(
            lanes=[], lens=np.zeros(0, dtype=np.int64),
            active=np.zeros((0, 0), dtype=bool),
            box_max=np.zeros(0, dtype=np.int64),
            tri_max=np.zeros(0, dtype=np.int64),
            instructions=np.zeros(0, dtype=np.int64),
            depth=empty_i, pending_ops=empty_i,
        )
    lens = np.fromiter((s.n_steps for s in soas), dtype=np.int64, count=n)
    length = int(lens.max())
    tests = np.zeros((n, length), dtype=np.int64)
    is_internal = np.zeros((n, length), dtype=bool)
    popped = np.zeros((n, length), dtype=bool)
    push_counts = np.zeros((n, length), dtype=np.int64)
    for i, soa in enumerate(soas):
        m = soa.n_steps
        tests[i, :m] = soa.tests
        is_internal[i, :m] = soa.is_internal
        popped[i, :m] = soa.popped
        push_counts[i, :m] = np.diff(soa.push_off)
    active = np.arange(length, dtype=np.int64)[None, :] < lens[:, None]
    box_max = np.where(active & is_internal, tests, 0).max(axis=0)
    tri_max = np.where(active & ~is_internal, tests, 0).max(axis=0)
    instructions = ((1 + tests) * active).sum(axis=0)
    net = np.where(active, push_counts - popped.astype(np.int64), 0)
    depth = np.cumsum(net, axis=1)
    pending_ops = np.where(active, push_counts + popped.astype(np.int64), 0)
    return WarpStateSoA(
        lanes=lanes, lens=lens, active=active, box_max=box_max,
        tri_max=tri_max, instructions=instructions, depth=depth,
        pending_ops=pending_ops,
    )
