"""Stackless escape-link traversal (Prokopenko & Lebrun-Grandie, 2402.00665).

The backend has two halves matching the two simulator phases:

* :class:`EscapeTracer` — phase one: traces rays by following two links
  per node (Smits-style ropes).  One box test per visit (the node's own
  bounds); hit + internal enters the BVH's ``first_child``, hit + leaf
  runs the primitive tests, miss (or a finished leaf) takes the node's
  escape link.  The walk is the exhaustive depth-first order in static
  slot order, so closest hits match the reference tracer while the event
  stream carries **no pushes and no pops** — there is no stack to spill.
* :class:`StacklessState` — phase two: the lane-state model the RT unit
  replays those streams against.  It holds nothing; any stack operation
  reaching it is a structural bug (a stack-ful trace was timed under the
  stackless strategy) and raises.

Trade-off faithfully modelled: the restart-free walk visits every node
whose *own* bounds the ray hits (no nearest-first ordering, no early
subtree culling beyond the shrinking ``t``), so node fetches and box
tests go up while stack traffic drops to zero and the SH carve-out
returns to the L1D (:meth:`StacklessStrategy.adapt_config`).  Leaf
visits record their primitive-test count; the leaf's own box test is
folded into the fetch that reached it, mirroring how the reference
tracer attributes child-box tests to the parent visit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.bvh.builder import NO_NODE
from repro.errors import StackError
from repro.geometry.intersect import moeller_trumbore, slab_test
from repro.stack.base import StackModel
from repro.stack.ops import StackActivity
from repro.trace.events import NodeKind, RayTrace, Step
from repro.trace.tracer import RayBatch, Tracer
from repro.traversal.base import TraversalStrategy

if TYPE_CHECKING:
    from repro.bvh.wide import WideBVH
    from repro.gpu.config import GPUConfig


class StacklessState(StackModel):
    """Lane state of a stackless warp slot: empty by construction.

    ``has_stack = False`` is the guard layer's cue to degrade to
    structural-only checks (see
    :class:`~repro.guard.invariants.GuardedStack`).
    """

    #: No per-lane traversal stack exists under this strategy.
    has_stack = False

    #: Stackless traces carry no pushes/pops, so the canonical vector
    #: replay never touches this model — trivially slot-invariant.
    vector_replayable = True

    def push(self, lane: int, value: int) -> StackActivity:
        self._check_lane(lane)
        raise StackError(
            f"stackless traversal issued a stack push ({value:#x}) — the "
            f"replayed trace was recorded by a stack-based strategy"
        )

    def pop(self, lane: int):
        self._check_lane(lane)
        raise StackError(
            "stackless traversal issued a stack pop — the replayed trace "
            "was recorded by a stack-based strategy"
        )

    def depth(self, lane: int) -> int:
        self._check_lane(lane)
        return 0

    def contents(self, lane: int) -> List[int]:
        self._check_lane(lane)
        return []


class EscapeTracer(Tracer):
    """Traces rays through one wide BVH via its escape links.

    Same construction and tracing surface as
    :class:`~repro.trace.tracer.Tracer`, so
    :func:`~repro.trace.path.generate_workload` swaps it in through its
    ``tracer_factory`` hook.  Its batch entry point walks the batch's rays
    one at a time.

    ``escape[n]`` is the node entered when the ray misses ``n``'s bounds
    (or finishes ``n``'s primitives): the next sibling in slot order,
    inherited from the parent when ``n`` is a last child, and
    :data:`~repro.bvh.builder.NO_NODE` for the root and the last node of
    the depth-first order.  Following ``first_child`` on a hit and
    ``escape`` otherwise enumerates the depth-first order a stack-based
    traversal with static slot order would visit.
    """

    def __init__(self, bvh: "WideBVH") -> None:
        super().__init__(bvh)
        first_child = self.tables.first_child
        escape = [NO_NODE] * bvh.node_count
        # Children are numbered after their parent, so in index order each
        # parent's link is final before its last child inherits it.
        for index, count in enumerate(self.tables.child_count):
            if count:
                first = first_child[index]
                escape[first : first + count - 1] = range(first + 1, first + count)
                escape[first + count - 1] = escape[index]
        self.escape = escape

    def trace_batch(self, rays: RayBatch) -> List[RayTrace]:
        """Trace each ray of ``rays`` on its own; traces in batch order."""
        tables = self.tables
        node_address = tables.address
        node_size = tables.size_bytes
        first_child = tables.first_child
        child_count = tables.child_count
        first_prim = tables.first_prim
        prim_count = tables.prim_count
        tri_a = tables.tri_a
        tri_e1 = tables.tri_e1
        tri_e2 = tables.tri_e2
        prim_order = self.bvh.prim_order
        escape = self.escape
        node_lo = self.bvh.lo
        node_hi = self.bvh.hi

        traces = []
        for index, (ray_id, pixel, kind, t_min, t_max, any_hit) in enumerate(zip(
            rays.ray_ids, rays.pixels, rays.kinds,
            rays.t_min.tolist(), rays.t_max.tolist(), rays.any_hit.tolist(),
        )):
            origin = rays.origins[index]
            direction = rays.directions[index]
            inv = rays.inv_directions[index]
            d0, d1, d2 = direction.tolist()
            best_t = t_max
            best_prim = -1

            trace = RayTrace(ray_id=ray_id, pixel=pixel, kind=kind)
            steps = trace.steps
            current = self.bvh.root
            with np.errstate(invalid="ignore"):
                while current != NO_NODE:
                    hit_mask, _ = slab_test(
                        origin, inv, t_min, best_t,
                        node_lo[current : current + 1],
                        node_hi[current : current + 1],
                    )
                    box_hit = bool(hit_mask[0])
                    leaf = not child_count[current]
                    if box_hit and leaf:
                        node_kind = NodeKind.LEAF
                        p0 = first_prim[current]
                        tests = prim_count[current]
                        for prim_id in prim_order[p0 : p0 + tests].tolist():
                            t = moeller_trumbore(
                                origin, d0, d1, d2, direction, t_min, best_t,
                                tri_a[prim_id], tri_e1[prim_id], tri_e2[prim_id],
                            )
                            if t is not None and t < best_t:
                                best_t = t
                                best_prim = prim_id
                                if any_hit:
                                    break
                        next_node = escape[current]
                        if any_hit and best_prim >= 0:
                            next_node = NO_NODE  # shadow ray satisfied
                    else:
                        # Internal visit or box miss: one box test either way.
                        node_kind = NodeKind.INTERNAL if not leaf else NodeKind.LEAF
                        tests = 1 if not leaf else 0
                        next_node = (
                            first_child[current] if box_hit else escape[current]
                        )
                    steps.append(
                        Step(
                            node_address[current], node_size[current],
                            node_kind, tests, [], False,
                        )
                    )
                    current = next_node

            trace.hit_prim = best_prim
            trace.hit_t = best_t if best_prim >= 0 else float("inf")
            traces.append(trace)
        return traces


class StacklessStrategy(TraversalStrategy):
    """Escape-link traversal: zero stack occupancy, zero spill traffic."""

    name = "stackless"
    uses_stack = False

    def adapt_config(self, config: "GPUConfig") -> "GPUConfig":
        # No SH stacks exist, so the shared-memory carve-out returns to
        # the L1D and every SMS knob is moot.
        if not (
            config.sh_stack_entries
            or config.skewed_bank_access
            or config.intra_warp_realloc
            or config.inter_warp_realloc
        ):
            return config
        return config.with_(
            sh_stack_entries=0,
            skewed_bank_access=False,
            intra_warp_realloc=False,
            inter_warp_realloc=False,
        )

    def trace_key(self) -> str:
        return "stackless"

    def build_workload(self, bvh, **kwargs):
        from repro.trace.path import generate_workload

        return generate_workload(bvh, tracer_factory=EscapeTracer, **kwargs)

    def make_unit_stacks(
        self, config: "GPUConfig", sm_id: int = 0
    ) -> List[StackModel]:
        return [
            StacklessState(warp_size=config.warp_size)
            for _ in range(config.max_warps_per_rt_unit)
        ]
