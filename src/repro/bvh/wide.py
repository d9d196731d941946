"""Collapse a binary BVH into a wide BVH (BVHk).

Wide BVHs raise the branching factor so each internal node can push up to
``k - 1`` sibling addresses per visit — exactly the behaviour that stresses
short traversal stacks in the paper (Fig. 3 shows a BVH6 with a 4-entry
stack).  Collapse follows the usual approach: repeatedly replace the
largest-surface-area internal slot with its two binary children until the
node has ``k`` slots or only leaves remain.

The collapse reads the binary tree's flat arrays and emits the wide tree's
flat arrays: every binary node's surface area is computed once, and the
wide nodes' bounds are gathered in one indexing pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import BVHError
from repro.bvh.builder import NO_NODE, BinaryBVH
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


def _gather_wide_children(
    root: int,
    width: int,
    left: List[int],
    right: List[int],
    area: List[float],
    is_leaf: List[bool],
) -> List[int]:
    """Pick up to ``width`` binary-node indices forming one wide node's children.

    ``root`` is internal, so its two children always fill the first slots.
    """
    slots = [left[root], right[root]]
    while len(slots) < width:
        # Expand the internal slot with the largest surface area; the
        # first one wins a tie.
        best = -1
        best_area = -1.0
        for pos, b_index in enumerate(slots):
            if not is_leaf[b_index] and area[b_index] > best_area:
                best_area = area[b_index]
                best = pos
        if best < 0:
            break  # all slots are leaves
        b_index = slots[best]
        slots[best : best + 1] = [left[b_index], right[b_index]]
    return slots


def collapse_to_wide(binary: BinaryBVH, width: int = 6) -> WideBVH:
    """Collapse ``binary`` into a :class:`WideBVH` with branching factor ``width``.

    Binary leaves map 1:1 to wide leaves; binary internal nodes are grouped
    so every wide internal node has between 2 and ``width`` children.
    """
    if width < 2:
        raise BVHError("wide BVH width must be >= 2")
    left = binary.left.tolist()
    right = binary.right.tolist()
    is_leaf = (binary.prim_count > 0).tolist()
    area = surface_areas(binary.lo, binary.hi).tolist()

    # Wide node ``w`` stands for binary node ``source[w]``.  A node's
    # children are numbered together, after every node numbered so far.
    source = [binary.root]
    depth = [0]
    first_child = [NO_NODE]
    child_count = [0]
    work = [] if is_leaf[binary.root] else [0]
    while work:
        wide_index = work.pop()
        kids = _gather_wide_children(
            source[wide_index], width, left, right, area, is_leaf
        )
        first_child[wide_index] = len(source)
        child_count[wide_index] = len(kids)
        child_depth = depth[wide_index] + 1
        for child_binary in kids:
            if not is_leaf[child_binary]:
                work.append(len(source))
            source.append(child_binary)
        depth.extend([child_depth] * len(kids))
        first_child.extend([NO_NODE] * len(kids))
        child_count.extend([0] * len(kids))

    rows = np.array(source, dtype=np.int64)
    return WideBVH(
        scene=binary.scene,
        width=width,
        lo=binary.lo[rows],
        hi=binary.hi[rows],
        first_child=np.array(first_child, dtype=np.int64),
        child_count=np.array(child_count, dtype=np.int64),
        first_prim=binary.first_prim[rows],
        prim_count=binary.prim_count[rows],
        prim_order=binary.prim_order,
        depth=np.array(depth, dtype=np.int64),
        address=np.zeros(len(source), dtype=np.int64),
        size_bytes=np.zeros(len(source), dtype=np.int64),
    )
