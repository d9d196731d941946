"""Depth-first wide-BVH traversal with stack-event recording.

Implements the traversal loop of paper section II-A / Fig. 3: visit a node,
test the ray against all child bounds, continue into the nearest hit child
and push the remaining hit children (far-to-near); at leaves run
ray-triangle tests; obtain the next node by popping.  Closest-hit rays
shrink ``t_max`` as hits are found; any-hit (shadow) rays terminate on the
first triangle hit.

:meth:`Tracer.trace` walks one ray at a time: child bounds are read as row
slices of the BVH's node arrays and everything else from
:class:`TraversalTables` (no ``Ray`` boxing per visit).
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional

import numpy as np

from repro.bvh.wide import WideBVH
from repro.geometry.intersect import moeller_trumbore, slab_test
from repro.geometry.ray import Ray
from repro.trace.events import NodeKind, RayKind, RayTrace, Step


class TraversalTables:
    """The working copies a tracer's inner loop reads, built once per tracer.

    The wide BVH holds only numpy arrays.  A traversal visit indexes
    several per-node fields, and a Python list index is several times
    faster than an ndarray scalar index; it also yields the Python ints
    the event stream carries.  So the per-node fields become lists here.
    Child bounds stay rows of ``bvh.lo`` / ``bvh.hi``: siblings are
    consecutive, so one slice feeds the slab test.  A leaf's prim ids stay
    a slice of ``bvh.prim_order``: a list copy would cost about as much to
    build as it saves.

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
        node_lo = self.bvh.lo
        node_hi = self.bvh.hi

        origin = ray.origin
        direction = ray.direction
        inv = ray.inv_direction
        d0 = float(direction[0])
        d1 = float(direction[1])
        d2 = float(direction[2])
        t_min = ray.t_min
        best_t = ray.t_max
        best_prim = -1

        trace = RayTrace(ray_id=ray_id, pixel=pixel, kind=kind)
        steps = trace.steps
        # Traversal stack of node indices (the *logical* stack; physical
        # placement is the timing model's concern).
        stack: List[int] = []
        current: int = self.bvh.root
        done = False
        with np.errstate(invalid="ignore"):
            while not done:
                pushes: List[int] = []
                if not child_count[current]:
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
                    next_node: Optional[int] = None
                else:
                    node_kind = NodeKind.INTERNAL
                    c0 = first_child[current]
                    tests = child_count[current]
                    hit_mask, t_enter = slab_test(
                        origin, inv, t_min, best_t,
                        node_lo[c0 : c0 + tests], node_hi[c0 : c0 + tests],
                    )
                    hits = hit_mask.tolist()
                    enters = t_enter.tolist()
                    hit_children = [
                        (enters[i], c0 + i) for i in range(tests) if hits[i]
                    ]
                    if hit_children:
                        # Nearest child visited next; others pushed far-to-near
                        # so the nearest remaining sibling pops first.
                        hit_children.sort(key=itemgetter(0))
                        next_node = hit_children[0][1]
                        for pos in range(len(hit_children) - 1, 0, -1):
                            child = hit_children[pos][1]
                            pushes.append(node_address[child])
                            stack.append(child)
                    else:
                        next_node = None

                popped = False
                if next_node is None:
                    if any_hit and best_prim >= 0:
                        done = True  # shadow ray satisfied; abandon the stack
                    elif stack:
                        next_node = stack.pop()
                        popped = True
                    else:
                        done = True
                steps.append(
                    Step(
                        node_address[current], node_size[current],
                        node_kind, tests, pushes, popped,
                    )
                )
                if next_node is not None:
                    current = next_node

        trace.hit_prim = best_prim
        trace.hit_t = best_t if best_prim >= 0 else float("inf")
        return trace
