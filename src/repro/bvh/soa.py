"""Structure-of-arrays mirror of a wide BVH for the batched tracer.

The object graph (:class:`~repro.bvh.wide.WideBVH` / ``WideNode``) is the
right shape for layout and the timing model, but the functional tracer
visits nodes millions of times per workload and every visit used to
re-slice child bounds out of that graph and box a fresh ``Ray``.  This
module flattens everything the traversal loop touches into contiguous
numpy arrays (plus plain-python mirrors for the scalar inner loop, which
is faster off lists than off ``ndarray`` scalar indexing):

* per-node child bounds, concatenated into one ``(C, 3)`` pair of arrays
  indexed by ``child_offset[i] : child_offset[i] + child_count[i]``;
* child node indices and their global-memory addresses, flat;
* per-leaf primitive id ranges over one flat ``prim_ids`` list;
* triangle data in Moeller-Trumbore form: vertex ``a`` plus the two edge
  vectors, both as ``(n, 3)`` float64 arrays (rows feed ``np.dot``) and
  as python-float triples (components feed the manual cross products).

Bit-exactness contract: every array row here is numerically *identical*
(same IEEE-754 bits) to what the per-visit slicing used to produce —
``child_lo`` rows are copies of ``WideBVH.child_los`` entries and the
edge arrays are the same ``b - a`` / ``c - a`` subtractions the boxed
:class:`~repro.geometry.triangle.Triangle` path performs — so tracing on
the SoA yields byte-identical event streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bvh.wide import WideBVH


class BVHSoA:
    """Flat arrays over one :class:`~repro.bvh.wide.WideBVH` and its scene.

    Built once per BVH (cached via :meth:`WideBVH.soa`); holds no mutable
    traversal state, so one instance is safely shared by every ray.
    """

    __slots__ = (
        "node_count",
        "node_address",
        "node_size_bytes",
        "node_is_leaf",
        "child_offset",
        "child_count",
        "child_index",
        "child_address",
        "child_lo",
        "child_hi",
        "prim_offset",
        "prim_count",
        "prim_ids",
        "tri_a",
        "tri_e1",
        "tri_e2",
        "tri_e1_f",
        "tri_e2_f",
    )

    def __init__(self, bvh: "WideBVH") -> None:
        nodes = bvh.nodes
        self.node_count = len(nodes)
        self.node_address = [node.address for node in nodes]
        self.node_size_bytes = [node.size_bytes for node in nodes]
        self.node_is_leaf = [node.is_leaf for node in nodes]

        child_offset = []
        child_count = []
        child_index = []
        child_address = []
        prim_offset = []
        prim_count = []
        prim_ids = []
        lo_blocks = []
        hi_blocks = []
        for node in nodes:
            child_offset.append(len(child_index))
            child_count.append(len(node.children))
            prim_offset.append(len(prim_ids))
            prim_count.append(len(node.prim_ids))
            for child in node.children:
                child_index.append(child)
                child_address.append(nodes[child].address)
            prim_ids.extend(node.prim_ids)
            if node.children:
                lo_blocks.append(bvh.child_los[node.index])
                hi_blocks.append(bvh.child_his[node.index])
        self.child_offset = child_offset
        self.child_count = child_count
        self.child_index = child_index
        self.child_address = child_address
        self.prim_offset = prim_offset
        self.prim_count = prim_count
        self.prim_ids = prim_ids
        if lo_blocks:
            self.child_lo = np.ascontiguousarray(np.concatenate(lo_blocks))
            self.child_hi = np.ascontiguousarray(np.concatenate(hi_blocks))
        else:
            self.child_lo = np.zeros((0, 3))
            self.child_hi = np.zeros((0, 3))

        verts = bvh.scene.vertices
        self.tri_a = np.ascontiguousarray(verts[:, 0, :])
        self.tri_e1 = np.ascontiguousarray(verts[:, 1, :] - verts[:, 0, :])
        self.tri_e2 = np.ascontiguousarray(verts[:, 2, :] - verts[:, 0, :])
        # Zipped column lists: the same tuples as ``tuple(row)`` per row,
        # without a temporary list per triangle.
        self.tri_e1_f = list(zip(*(col.tolist() for col in self.tri_e1.T)))
        self.tri_e2_f = list(zip(*(col.tolist() for col in self.tri_e2.T)))
