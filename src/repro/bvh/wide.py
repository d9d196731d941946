"""Collapse a binary BVH into a wide BVH (BVHk).

Wide BVHs raise the branching factor so each internal node can push up to
``k - 1`` sibling addresses per visit — exactly the behaviour that stresses
short traversal stacks in the paper (Fig. 3 shows a BVH6 with a 4-entry
stack).  Collapse follows the usual approach: repeatedly replace the
largest-surface-area internal slot with its two binary children until the
node has ``k`` slots or only leaves remain.

The collapse turns the binary tree's flat arrays into the wide tree's one
depth at a time: a depth's wide nodes expand their slots together.  Numbers
follow from subtree sizes as a last-in-first-out walk gives them: a node's
children take the next block, and the blocks below each child follow
those below its later siblings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import BVHError
from repro.bvh.builder import NO_NODE, BinaryBVH, _segment_starts
from repro.geometry.aabb import surface_areas
from repro.scene.scene import Scene


@dataclass
class WideBVH:
    """The wide BVH consumed by traversal and the timing model.

    Flat per-node arrays, one row per node; the root is node 0.  Node ``i``
    is a leaf when ``child_count[i] == 0``: it owns
    ``prim_order[first_prim[i] : first_prim[i] + prim_count[i]]`` and its
    ``first_child`` is :data:`~repro.bvh.builder.NO_NODE`.  Otherwise its
    children are the ``child_count[i]`` consecutive nodes from
    ``first_child[i]``, all numbered after ``i``, so their bounds are the
    rows ``lo[f : f + c]`` / ``hi[f : f + c]``.  ``depth`` counts edges
    from the root.  ``address`` and ``size_bytes`` give each node's
    location in the simulated global-memory space; they are zero until
    :func:`~repro.bvh.layout.assign_addresses` fills them.
    """

    scene: Scene
    width: int
    lo: np.ndarray
    hi: np.ndarray
    first_child: np.ndarray
    child_count: np.ndarray
    first_prim: np.ndarray
    prim_count: np.ndarray
    prim_order: np.ndarray
    depth: np.ndarray
    address: np.ndarray
    size_bytes: np.ndarray
    root: int = 0
    total_bytes: int = 0

    @property
    def node_count(self) -> int:
        """Total number of wide nodes."""
        return len(self.lo)

    def max_depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        return int(self.depth.max(initial=0))

    def leaf_prims(self, node: int) -> List[int]:
        """Scene prim ids owned by ``node`` (none for an internal node)."""
        start = int(self.first_prim[node])
        return self.prim_order[start : start + int(self.prim_count[node])].tolist()


def collapse_to_wide(binary: BinaryBVH, width: int = 6) -> WideBVH:
    """Collapse ``binary`` into a :class:`WideBVH` with branching factor ``width``.

    Binary leaves map 1:1 to wide leaves; binary internal nodes are grouped
    so every wide internal node has between 2 and ``width`` children.
    """
    if width < 2:
        raise BVHError("wide BVH width must be >= 2")
    is_leaf = binary.prim_count > 0
    area = surface_areas(binary.lo, binary.hi)

    # Per depth, the binary node behind each wide node: parents in order,
    # each parent's children left to right.  ``child_counts[d]`` holds the
    # child counts of depth ``d``'s internal nodes, in the same order.
    levels = [np.array([binary.root], dtype=np.int64)]
    child_counts = []
    columns = np.arange(width)
    while True:
        parents = levels[-1][~is_leaf[levels[-1]]]
        if not len(parents):
            break
        slots = np.full((len(parents), width), NO_NODE, dtype=np.int64)
        slots[:, 0] = binary.left[parents]
        slots[:, 1] = binary.right[parents]
        rows = np.arange(len(parents))
        for _ in range(width - 2):
            # Expand each row's internal slot with the largest surface
            # area; the first one wins a tie.
            internal = (slots != NO_NODE) & ~is_leaf[slots]
            best = np.argmax(np.where(internal, area[slots], -1.0), axis=1)
            grow = internal[rows, best]
            if not grow.any():
                break  # all slots are leaves
            row, at = rows[grow], best[grow]
            expanded, shifted = slots[row, at], np.roll(slots[row], 1, axis=1)
            slots[row] = np.where(columns < at[:, None], slots[row], shifted)
            slots[row, at] = binary.left[expanded]
            slots[row, at + 1] = binary.right[expanded]
        filled = slots != NO_NODE
        child_counts.append(filled.sum(axis=1))
        levels.append(slots[filled])

    # Descendants of every wide node, per depth.
    below = [np.zeros(len(levels[-1]), dtype=np.int64)]
    for level, counts in zip(levels[-2::-1], child_counts[::-1]):
        total = np.zeros(len(level), dtype=np.int64)
        sums = np.add.reduceat(below[0], _segment_starts(counts))
        total[~is_leaf[level]] = counts + sums
        below.insert(0, total)

    node_count = 1 + int(below[0][0])
    source = np.empty(node_count, dtype=np.int64)
    depth = np.empty(node_count, dtype=np.int64)
    first_child = np.full(node_count, NO_NODE, dtype=np.int64)
    child_count = np.zeros(node_count, dtype=np.int64)
    # The depth's wide numbers, and the first child of each internal one.
    index, firsts = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for d, level in enumerate(levels):
        source[index] = level
        depth[index] = d
        if d == len(child_counts):
            break
        counts, ends = child_counts[d], np.cumsum(child_counts[d])
        first_child[index[~is_leaf[level]]] = firsts
        child_count[index[~is_leaf[level]]] = counts
        index = np.repeat(firsts + counts - ends, counts) + np.arange(ends[-1])
        # An internal child's block follows its parent's block and all the
        # blocks below its later siblings.
        through = np.cumsum(below[d + 1])
        firsts = np.repeat(firsts + counts + through[ends - 1], counts) - through
        firsts = firsts[~is_leaf[levels[d + 1]]]

    return WideBVH(
        scene=binary.scene,
        width=width,
        lo=np.take(binary.lo, source, axis=0),
        hi=np.take(binary.hi, source, axis=0),
        first_child=first_child,
        child_count=child_count,
        first_prim=binary.first_prim[source],
        prim_count=binary.prim_count[source],
        prim_order=binary.prim_order,
        depth=depth,
        address=np.zeros(node_count, dtype=np.int64),
        size_bytes=np.zeros(node_count, dtype=np.int64),
    )
