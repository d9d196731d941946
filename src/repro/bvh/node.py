"""BVH node records.

:class:`WideNode` is a node of the collapsed wide BVH that traversal and
the timing model consume.  Nodes are stored in a flat list and reference
children by index, never by Python object pointer, so trees serialize and
address-map cleanly.  The intermediate binary tree has no node record: it
is flat per-node arrays (:class:`~repro.bvh.builder.BinaryBVH`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.geometry.aabb import AABB

#: Sentinel index meaning "no node".
NO_NODE = -1


@dataclass
class WideNode:
    """A node of the wide BVH (up to ``k`` children per internal node).

    ``address`` and ``size_bytes`` are filled in by the layout pass and
    give the node's location in the simulated global-memory space; the
    traversal stack stores these addresses (one 8-byte entry each, as in
    the paper).
    """

    index: int
    bounds: AABB
    children: List[int] = field(default_factory=list)
    prim_ids: List[int] = field(default_factory=list)
    address: int = 0
    size_bytes: int = 0
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        """True when the node holds primitives instead of children."""
        return not self.children

    @property
    def child_count(self) -> int:
        """Number of children (0 for leaves)."""
        return len(self.children)
