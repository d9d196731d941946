"""Collapse a binary BVH into a wide BVH (BVHk).

Wide BVHs raise the branching factor so each internal node can push up to
``k - 1`` sibling addresses per visit — exactly the behaviour that stresses
short traversal stacks in the paper (Fig. 3 shows a BVH6 with a 4-entry
stack).  Collapse follows the usual approach: repeatedly replace the
largest-surface-area internal slot with its two binary children until the
node has ``k`` slots or only leaves remain.

The collapse reads the binary tree's flat arrays: every binary node's
surface area is computed once, and the wide nodes' bounds are gathered
once, so no node costs an ``AABB`` method call or an ``np.stack``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import BVHError
from repro.bvh.builder import BinaryBVH
from repro.bvh.node import WideNode
from repro.geometry.aabb import AABB, surface_areas
from repro.scene.scene import Scene


@dataclass
class WideBVH:
    """The wide BVH consumed by traversal and the timing model.

    ``child_los[i]`` / ``child_his[i]`` hold node ``i``'s child bounds as
    ``(c, 3)`` arrays for the batched ray/AABB kernel.  ``address_to_node``
    is populated by the layout pass.
    """

    scene: Scene
    width: int
    nodes: List[WideNode] = field(default_factory=list)
    root: int = 0
    child_los: List[np.ndarray] = field(default_factory=list)
    child_his: List[np.ndarray] = field(default_factory=list)
    address_to_node: Dict[int, int] = field(default_factory=dict)
    total_bytes: int = 0
    _soa: object = field(default=None, repr=False, compare=False)
    _escape: object = field(default=None, repr=False, compare=False)

    #: Cache slots of lazily built derived structures; every slot listed
    #: here is cleared together by :meth:`invalidate_derived`.
    _DERIVED_SLOTS = ("_soa", "_escape")

    @property
    def node_count(self) -> int:
        """Total number of wide nodes."""
        return len(self.nodes)

    def _derived(self, slot: str, build):
        """Shared build-once logic for every derived-structure cache."""
        value = getattr(self, slot)
        if value is None:
            value = build(self)
            setattr(self, slot, value)
        return value

    def invalidate_derived(self) -> None:
        """Drop every cached derived structure.

        The layout pass calls this when it reassigns node addresses —
        addresses are baked into the SoA mirror, and the escape index's
        DFS link order mirrors the address assignment walk.
        """
        for slot in self._DERIVED_SLOTS:
            setattr(self, slot, None)

    def soa(self):
        """The flat structure-of-arrays mirror (built once, cached).

        Must be requested after layout assigns node addresses; the tracer
        does so via its constructor.
        """
        from repro.bvh.soa import BVHSoA

        return self._derived("_soa", BVHSoA)

    def escape(self):
        """The escape-link index for stackless traversal (built once, cached).

        Same caching and invalidation contract as :meth:`soa`.
        """
        from repro.bvh.escape import EscapeIndex

        return self._derived("_escape", EscapeIndex)

    def node_at_address(self, address: int) -> WideNode:
        """Resolve a global-memory address back to its node."""
        try:
            return self.nodes[self.address_to_node[address]]
        except KeyError:
            raise BVHError(f"no BVH node at address {address:#x}") from None

    def max_depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        return max((node.depth for node in self.nodes), default=0)


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
    # children are numbered together, so their indices are consecutive.
    source = [binary.root]
    depth = [0]
    children: List[List[int]] = [[]]
    work = [] if is_leaf[binary.root] else [0]
    while work:
        wide_index = work.pop()
        kids = children[wide_index]
        for child_binary in _gather_wide_children(
            source[wide_index], width, left, right, area, is_leaf
        ):
            child_index = len(source)
            kids.append(child_index)
            source.append(child_binary)
            depth.append(depth[wide_index] + 1)
            children.append([])
            if not is_leaf[child_binary]:
                work.append(child_index)

    rows = np.array(source, dtype=np.int64)
    node_lo, node_hi = binary.lo[rows], binary.hi[rows]
    # Each node's child bounds are one slice of these copies.
    child_lo, child_hi = node_lo.copy(), node_hi.copy()
    first_prim = binary.first_prim[rows].tolist()
    prim_count = binary.prim_count[rows].tolist()
    prim_order = binary.prim_order.tolist()
    wide = WideBVH(scene=binary.scene, width=width)
    for index, kids in enumerate(children):
        start = first_prim[index]
        wide.nodes.append(
            WideNode(
                index=index,
                bounds=AABB(lo=node_lo[index], hi=node_hi[index]),
                children=kids,
                prim_ids=prim_order[start : start + prim_count[index]],
                depth=depth[index],
            )
        )
        first = kids[0] if kids else 0
        wide.child_los.append(child_lo[first : first + len(kids)])
        wide.child_his.append(child_hi[first : first + len(kids)])
    return wide
