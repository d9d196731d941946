"""Binary BVH construction.

Median split: every node sorts its primitives by centroid along the
longest axis of their centroid extent and splits them in half.

The build runs one tree level at a time over flat arrays, so its cost is a
few numpy passes per level rather than Python work per node:

* the primitives of a level's nodes sit in contiguous segments, and each
  primitive's id, bound rows and centroid ranks are carried in that
  order, so ``reduceat`` passes read them directly to give every segment
  its bounds (see :func:`_fold`) and its centroid extent, hence its axis;
* one sort of the key ``(segment, rank, position)`` orders every segment
  of the level at once, and the carried rows follow it.  ``rank`` is the
  dense integer rank of the centroid coordinate along the segment's axis,
  and ``position`` the row's place in its segment, so equal coordinates
  keep their previous order exactly as a per-node
  ``argsort(kind="stable")`` would;
* each segment splits at ``n // 2``.

A median tree's shape depends only on its primitive count, so node numbers
follow from subtree sizes: the root is node 0, and the children of the
k-th internal node in left-first preorder are ``2k + 1`` and ``2k + 2``.
Leaves own consecutive ranges of the final permutation, left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import BVHError
from repro.scene.scene import Scene

#: Sentinel index meaning "no node".
NO_NODE = -1


@dataclass
class BinaryBVH:
    """The intermediate binary BVH over a scene, as flat per-node arrays.

    Node ``i`` is a leaf when ``prim_count[i] > 0``: it owns
    ``prim_order[first_prim[i] : first_prim[i] + prim_count[i]]`` and its
    ``left``/``right`` are :data:`NO_NODE`.  Otherwise
    ``left[i]`` and ``right[i]`` are its children.  Rows ``lo[i]`` and
    ``hi[i]`` bound node ``i``.  The root is node 0.
    """

    scene: Scene
    left: np.ndarray
    right: np.ndarray
    first_prim: np.ndarray
    prim_count: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    prim_order: np.ndarray
    root: int = 0

    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self.left)

    def leaf_prims(self, node_index: int) -> np.ndarray:
        """Scene prim ids owned by leaf ``node_index``."""
        count = int(self.prim_count[node_index])
        if count == 0:
            raise BVHError(f"node {node_index} is not a leaf")
        start = int(self.first_prim[node_index])
        return self.prim_order[start : start + count]


def _internal_nodes(count: int, max_leaf_size: int, memo: Dict[int, int]) -> int:
    """Internal-node count of a median subtree over ``count`` primitives."""
    if count <= max_leaf_size:
        return 0
    if count not in memo:
        half = count // 2
        memo[count] = (
            1
            + _internal_nodes(half, max_leaf_size, memo)
            + _internal_nodes(count - half, max_leaf_size, memo)
        )
    return memo[count]


def _segment_starts(counts: np.ndarray) -> np.ndarray:
    """Start offsets of back-to-back segments of ``counts`` elements."""
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def _fold(ufunc: np.ufunc, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each segment's rows folded first to last, bit for bit as a per-node
    ``min(axis=0)`` or ``max(axis=0)`` folds them.  ``reduceat`` gets the
    values but takes a long segment's rows out of order; ``np.minimum`` and
    ``np.maximum`` return the second of two equal operands, so a zero fold
    takes the sign of the segment's last zero."""
    folded = ufunc.reduceat(rows, starts)
    ends = np.append(starts[1:], len(rows))
    for axis in np.flatnonzero((folded == 0).any(axis=0)):
        zeros = np.flatnonzero(rows[:, axis] == 0)
        hit = np.flatnonzero(folded[:, axis] == 0)
        folded[hit, axis] = rows[zeros[np.searchsorted(zeros, ends[hit]) - 1], axis]
    return folded


def build_binary_bvh(scene: Scene, max_leaf_size: int = 4) -> BinaryBVH:
    """Build a median-split binary BVH over ``scene``.

    Args:
        scene: the scene to index; it must contain at least one triangle,
            and every vertex coordinate must be finite.
        max_leaf_size: maximum primitives per leaf.

    Returns:
        The built :class:`BinaryBVH` with root index 0.
    """
    n = scene.triangle_count
    if n == 0:
        raise BVHError("cannot build a BVH over an empty scene")
    if max_leaf_size < 1:
        raise BVHError("max_leaf_size must be >= 1")
    if not np.isfinite(scene.vertices).all():
        raise BVHError(f"scene {scene.name!r} has non-finite vertices")

    # Each primitive's id, bound and rank rows, carried in segment order and
    # permuted by each level's own sort.  ``ranks[i, a]`` indexes primitive
    # ``i``'s centroid coordinate in ``coords[a]``, the axis's distinct values
    # in ascending order, so ranks tie where coordinates do, and a segment's
    # least and greatest ranks give its centroid extent.
    prims = np.arange(n, dtype=np.int64)
    v = scene.vertices  # taken vertex by vertex, as ``min(axis=1)`` does, but faster
    tri_lo = np.minimum(np.minimum(v[:, 0], v[:, 1]), v[:, 2])
    tri_hi = np.maximum(np.maximum(v[:, 0], v[:, 1]), v[:, 2])
    centroids = scene.centroids()
    coords = []
    ranks = np.empty((n, 3), dtype=np.int32)
    for axis in range(3):
        values, ranks[:, axis] = np.unique(centroids[:, axis], return_inverse=True)
        coords.append(values)
    del centroids
    rank_bits = (n - 1).bit_length()
    memo: Dict[int, int] = {}

    node_count = 2 * _internal_nodes(n, max_leaf_size, memo) + 1
    left = np.full(node_count, NO_NODE, dtype=np.int64)
    right = np.full(node_count, NO_NODE, dtype=np.int64)
    first_prim = np.zeros(node_count, dtype=np.int64)
    prim_count = np.zeros(node_count, dtype=np.int64)
    lo = np.empty((node_count, 3))
    hi = np.empty((node_count, 3))
    prim_order = np.empty(n, dtype=np.int64)

    # The current level: the carried rows hold each segment's primitives
    # back to back, ``counts`` rows each.  Per segment, ``offsets`` is where
    # it starts in ``prim_order``, ``nodes`` its node index and ``rank`` its
    # index among internal nodes in preorder.
    counts = np.array([n], dtype=np.int64)
    offsets = np.zeros(1, dtype=np.int64)
    nodes = np.zeros(1, dtype=np.int64)
    rank = np.zeros(1, dtype=np.int64)
    while True:
        starts = _segment_starts(counts)
        # Folded in the order the parent's sort left, as a per-node build
        # folds them; that fixes the sign of zero bounds.
        lo[nodes] = _fold(np.minimum, tri_lo, starts)
        hi[nodes] = _fold(np.maximum, tri_hi, starts)

        is_leaf = counts <= max_leaf_size
        if is_leaf.any():
            segment = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
            in_leaf = is_leaf[segment]
            first_prim[nodes[is_leaf]] = offsets[is_leaf]
            prim_count[nodes[is_leaf]] = counts[is_leaf]
            position = offsets[segment] + np.arange(len(prims)) - starts[segment]
            prim_order[position[in_leaf]] = prims[in_leaf]

            inner = ~is_leaf
            if not inner.any():
                break
            keep = ~in_leaf
            prims, ranks = prims[keep], ranks[keep]
            tri_lo, tri_hi = tri_lo[keep], tri_hi[keep]
            counts, offsets = counts[inner], offsets[inner]
            nodes, rank = nodes[inner], rank[inner]
            starts = _segment_starts(counts)

        low, high = (f.reduceat(ranks, starts) for f in (np.minimum, np.maximum))
        extent = [coords[a][high[:, a]] - coords[a][low[:, a]] for a in range(3)]
        axis = np.argmax(np.stack(extent, axis=1), axis=1)
        # Sort by (segment, rank, position in the segment).  The position
        # makes every key distinct, so any sort gives the stable order, and
        # the sorted keys carry the permutation in their low bits.  The key
        # fits in 63 bits for scenes below 2**30 triangles.
        segment = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        base = starts[segment]
        local_bits = int(counts.max() - 1).bit_length()
        key = segment << rank_bits | ranks[np.arange(len(prims)), axis[segment]]
        key <<= local_bits
        key |= np.arange(len(prims)) - base
        key.sort()
        order = base + (key & ((1 << local_bits) - 1))
        del base, key
        prims = np.take(prims, order)
        tri_lo = np.take(tri_lo, order, axis=0)
        tri_hi = np.take(tri_hi, order, axis=0)
        ranks = np.take(ranks, order, axis=0)

        half = counts // 2
        sizes, inverse = np.unique(half, return_inverse=True)
        left_internal = np.array(
            [_internal_nodes(int(size), max_leaf_size, memo) for size in sizes],
            dtype=np.int64,
        )[inverse]
        left[nodes] = 2 * rank + 1
        right[nodes] = 2 * rank + 2
        counts = np.stack([half, counts - half], axis=1).ravel()
        offsets = np.stack([offsets, offsets + half], axis=1).ravel()
        nodes = np.stack([2 * rank + 1, 2 * rank + 2], axis=1).ravel()
        rank = np.stack([rank + 1, rank + 1 + left_internal], axis=1).ravel()

    return BinaryBVH(
        scene=scene,
        left=left,
        right=right,
        first_prim=first_prim,
        prim_count=prim_count,
        lo=lo,
        hi=hi,
        prim_order=prim_order,
    )
