"""Depth-first wide-BVH traversal with stack-event recording.

Implements the traversal loop of paper section II-A / Fig. 3: visit a node,
test the ray against all child bounds, continue into the nearest hit child
and push the remaining hit children (far-to-near); at leaves run
ray-triangle tests; obtain the next node by popping.  Closest-hit rays
shrink ``t_max`` as hits are found; any-hit (shadow) rays terminate on the
first triangle hit.

:meth:`Tracer.trace_batch` walks a whole batch of rays in lockstep: each
pass advances every live ray by one node visit, with one slab test over
all (ray, child) pairs of the rays at internal nodes and one
Moeller-Trumbore test over all (ray, prim) pairs of the rays at leaves,
then one Python pass over the live rays records each :class:`Step` and
applies its pushes and pops.  Rays never interact, so each ray's trace is
the one it gets when traced alone (:meth:`Tracer.trace` is a batch of
one), bit for bit the trace of a one-ray walk through the one-pair
kernels: the batch kernels reproduce those kernels row by row, hit
children are ordered by a stable sort, and a leaf's accepted prims,
taken in prim order, give the closest (or, for an any-hit ray, the
first) hit a prim-by-prim loop gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.bvh.wide import WideBVH
from repro.geometry.intersect import moeller_trumbore_batch, slab_test
from repro.geometry.ray import Ray
from repro.trace.events import NodeKind, RayKind, RayTrace, Step


@dataclass
class RayBatch:
    """Rays traced together: row ``k`` of each array is ray ``k``.

    ``origins`` and ``directions`` are ``(n, 3)`` float64 arrays and
    ``t_min`` / ``t_max`` the ``(n,)`` ray intervals.  ``any_hit`` marks
    the rays that stop at their first hit (shadow rays); ``ray_ids``,
    ``pixels`` and ``kinds`` label each ray's :class:`RayTrace`.
    ``inv_directions`` follows :class:`~repro.geometry.ray.Ray`'s rule:
    zero components map to ``+inf``.
    """

    origins: np.ndarray
    directions: np.ndarray
    t_min: np.ndarray
    t_max: np.ndarray
    any_hit: np.ndarray
    ray_ids: Sequence[int]
    pixels: Sequence[int]
    kinds: Sequence[RayKind]
    inv_directions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        with np.errstate(divide="ignore", over="ignore"):
            self.inv_directions = np.where(
                self.directions != 0.0, 1.0 / self.directions, np.inf
            )

    def __len__(self) -> int:
        return len(self.kinds)

    @classmethod
    def of(
        cls,
        rays: Sequence[Ray],
        ray_ids: Optional[Sequence[int]] = None,
        pixels: Optional[Sequence[int]] = None,
        kinds: Optional[Sequence[RayKind]] = None,
        any_hit: Optional[Sequence[bool]] = None,
    ) -> "RayBatch":
        """A batch of :class:`Ray` objects; unlabelled rays are closest-hit
        primary rays numbered from 0, all on pixel 0."""
        count = len(rays)
        return cls(
            origins=np.array([ray.origin for ray in rays]).reshape(count, 3),
            directions=np.array([ray.direction for ray in rays]).reshape(count, 3),
            t_min=np.array([ray.t_min for ray in rays], dtype=np.float64),
            t_max=np.array([ray.t_max for ray in rays], dtype=np.float64),
            any_hit=np.zeros(count, dtype=bool) if any_hit is None
            else np.array(any_hit, dtype=bool),
            ray_ids=range(count) if ray_ids is None else ray_ids,
            pixels=[0] * count if pixels is None else pixels,
            kinds=[RayKind.PRIMARY] * count if kinds is None else kinds,
        )


class TraversalTables:
    """The working copies a tracer's per-ray Python code reads, built once.

    The wide BVH holds only numpy arrays.  A visit's record needs several
    per-node fields one ray at a time, and a Python list index is several
    times faster than an ndarray scalar index; it also yields the Python
    ints the event stream carries.  So the per-node fields become lists
    here, while the batched tests gather from the BVH's own arrays.

    Triangles are kept in Moeller-Trumbore form: vertex ``a`` (a view of
    the scene's vertices) and the two edges as ``(n, 3)`` arrays, the same
    ``b - a`` / ``c - a`` subtractions the boxed
    :func:`~repro.geometry.intersect.ray_triangle_intersect` performs, so
    both paths give the same bits.
    """

    __slots__ = (
        "address",
        "size_bytes",
        "first_child",
        "child_count",
        "first_prim",
        "prim_count",
        "tri_a",
        "tri_e1",
        "tri_e2",
    )

    def __init__(self, bvh: WideBVH) -> None:
        self.address = bvh.address.tolist()
        self.size_bytes = bvh.size_bytes.tolist()
        self.first_child = bvh.first_child.tolist()
        self.child_count = bvh.child_count.tolist()
        self.first_prim = bvh.first_prim.tolist()
        self.prim_count = bvh.prim_count.tolist()
        verts = bvh.scene.vertices
        self.tri_a = verts[:, 0, :]
        self.tri_e1 = verts[:, 1, :] - verts[:, 0, :]
        self.tri_e2 = verts[:, 2, :] - verts[:, 0, :]


class Tracer:
    """Traces rays through one wide BVH, emitting :class:`RayTrace` records."""

    def __init__(self, bvh: WideBVH) -> None:
        self.bvh = bvh
        self.scene = bvh.scene
        self.tables = TraversalTables(bvh)

    def trace(
        self,
        ray: Ray,
        ray_id: int = 0,
        pixel: int = 0,
        kind: RayKind = RayKind.PRIMARY,
        any_hit: bool = False,
    ) -> RayTrace:
        """Trace one ray to its closest hit (or first hit when ``any_hit``).

        Returns the ray's :class:`RayTrace`: the full stack event stream
        plus ``hit_prim`` and ``hit_t``.
        """
        batch = RayBatch.of([ray], [ray_id], [pixel], [kind], [any_hit])
        return self.trace_batch(batch)[0]

    def trace_batch(self, rays: RayBatch) -> List[RayTrace]:
        """Trace every ray of ``rays``; returns their traces in batch order."""
        bvh = self.bvh
        tables = self.tables
        node_address = tables.address
        node_size = tables.size_bytes
        box_tests = tables.child_count
        triangle_tests = tables.prim_count
        child_count = bvh.child_count
        first_child = bvh.first_child
        prim_count = bvh.prim_count
        first_prim = bvh.first_prim
        prim_order = bvh.prim_order
        node_lo = bvh.lo
        node_hi = bvh.hi
        tri_a = tables.tri_a
        tri_e1 = tables.tri_e1
        tri_e2 = tables.tri_e2
        child_cols = np.arange(int(child_count.max(initial=0)))
        prim_cols = np.arange(int(prim_count.max(initial=0)))
        internal = NodeKind.INTERNAL
        leaf = NodeKind.LEAF

        traces = [
            RayTrace(ray_id=ray_id, pixel=pixel, kind=kind)
            for ray_id, pixel, kind in zip(rays.ray_ids, rays.pixels, rays.kinds)
        ]
        steps = [trace.steps for trace in traces]
        origins = rays.origins
        directions = rays.directions
        invs = rays.inv_directions
        t_min = rays.t_min
        shadow = rays.any_hit.tolist()
        best_t = np.array(rays.t_max, dtype=np.float64)
        best_prim = [-1] * len(traces)
        # Per-ray traversal stacks of node indices (the *logical* stacks;
        # physical placement is the timing model's concern).
        stacks: List[List[int]] = [[] for _ in traces]
        # The live rays and the node each visits in this pass.
        live = np.arange(len(traces))
        nodes = np.full(len(traces), bvh.root)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while live.size:
                next_live: List[int] = []
                next_nodes: List[int] = []
                kids = child_count[nodes]
                at_internal = kids > 0
                internal_count = np.count_nonzero(at_internal)

                # Internal visits: slab-test each ray's children, order the
                # hits nearest first (misses last) by a stable sort, descend
                # into the first.
                if internal_count:
                    rays_i = live[at_internal]
                    nodes_i = nodes[at_internal]
                    counts = kids[at_internal]
                    firsts = first_child[nodes_i][:, None]
                    valid = child_cols < counts[:, None]
                    pair_ray = rays_i.repeat(counts)
                    pair_child = (firsts + child_cols)[valid]
                    hit, t_enter = slab_test(
                        origins[pair_ray], invs[pair_ray],
                        t_min[pair_ray], best_t[pair_ray],
                        node_lo[pair_child], node_hi[pair_child],
                    )
                    keys = np.full(valid.shape, np.nan)
                    keys[valid] = np.where(hit, t_enter, np.nan)
                    ordered = firsts + np.argsort(keys, axis=1, kind="stable")
                    hit_counts = np.count_nonzero(keys == keys, axis=1)
                    for ray, node, count, row in zip(
                        rays_i.tolist(), nodes_i.tolist(), hit_counts.tolist(),
                        ordered.tolist(),
                    ):
                        stack = stacks[ray]
                        popped = False
                        if count:
                            next_live.append(ray)
                            next_nodes.append(row[0])
                            # Far-to-near, so the nearest remaining sibling
                            # pops first.
                            pushed = row[count - 1 : 0 : -1]
                            stack.extend(pushed)
                            pushes = [node_address[child] for child in pushed]
                        else:
                            pushes = []
                            if stack:
                                next_live.append(ray)
                                next_nodes.append(stack.pop())
                                popped = True
                        steps[ray].append(Step(
                            node_address[node], node_size[node], internal,
                            box_tests[node], pushes, popped,
                        ))

                # Leaf visits: test each ray's prims against ``best_t`` as
                # it was on entry.  The accepted pairs come in ray order and,
                # within a ray, in prim order, so one pass over them applies
                # the sequential rule: a closest-hit ray keeps the first
                # nearest prim, an any-hit ray its first prim.
                if internal_count < live.size:
                    at_leaf = ~at_internal
                    rays_l = live[at_leaf]
                    nodes_l = nodes[at_leaf]
                    counts = prim_count[nodes_l]
                    valid = prim_cols < counts[:, None]
                    pair_ray = rays_l.repeat(counts)
                    pair_prim = prim_order[
                        (first_prim[nodes_l][:, None] + prim_cols)[valid]
                    ]
                    pair_best = best_t[pair_ray]
                    hit, t = moeller_trumbore_batch(
                        origins[pair_ray], directions[pair_ray],
                        t_min[pair_ray], pair_best,
                        tri_a[pair_prim], tri_e1[pair_prim], tri_e2[pair_prim],
                    )
                    accepted = np.flatnonzero(hit & (t < pair_best))
                    for ray, t_hit, prim in zip(
                        pair_ray[accepted].tolist(), t[accepted].tolist(),
                        pair_prim[accepted].tolist(),
                    ):
                        if t_hit < best_t[ray] and not (
                            shadow[ray] and best_prim[ray] >= 0
                        ):
                            best_t[ray] = t_hit
                            best_prim[ray] = prim
                    for ray, node in zip(rays_l.tolist(), nodes_l.tolist()):
                        stack = stacks[ray]
                        # A satisfied shadow ray abandons its stack.
                        popped = bool(stack) and not (
                            shadow[ray] and best_prim[ray] >= 0
                        )
                        if popped:
                            next_live.append(ray)
                            next_nodes.append(stack.pop())
                        steps[ray].append(Step(
                            node_address[node], node_size[node], leaf,
                            triangle_tests[node], [], popped,
                        ))

                live = np.array(next_live, dtype=np.int64)
                nodes = np.array(next_nodes, dtype=np.int64)

        for trace, prim, t in zip(traces, best_prim, best_t.tolist()):
            trace.hit_prim = prim
            trace.hit_t = t if prim >= 0 else float("inf")
        return traces
