"""Global-memory layout of the wide BVH.

Assigns every node a byte address in the simulated global-memory space so
the timing model sees realistic node-fetch access patterns: siblings are
packed contiguously (depth-first subtree order), leaves embed their
triangle data, and all nodes are aligned to the cache-line-friendly
boundary used by real BVH layouts.

Stack entries hold these addresses — one 8-byte entry per node, matching
the paper's 8 B x 8-entry x 128-thread ray-buffer sizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh.builder import _segment_starts
from repro.bvh.wide import WideBVH

#: Byte alignment for node records.
NODE_ALIGNMENT = 32
#: Fixed per-node header (bounds of the node itself, flags, counts).
NODE_HEADER_BYTES = 32
#: Bytes per child slot in an internal node (child AABB + pointer).
CHILD_SLOT_BYTES = 32
#: Bytes per triangle stored in a leaf (3 vertices x 3 floats + pad).
TRIANGLE_BYTES = 48
#: Base address of the BVH region in the simulated address space.
BVH_BASE_ADDRESS = 0x1000_0000


@dataclass
class MemoryLayout:
    """Summary of the address assignment."""

    base_address: int
    total_bytes: int
    node_count: int

    @property
    def megabytes(self) -> float:
        """Footprint in MB (the paper's Table II 'BVH (MB)' column)."""
        return self.total_bytes / (1024.0 * 1024.0)


def node_size_bytes(
    child_count: int | np.ndarray, prim_count: int | np.ndarray
) -> int | np.ndarray:
    """Size of a node record, aligned to :data:`NODE_ALIGNMENT`.

    Takes one node's counts as ints, or every node's as integer arrays.
    """
    raw = NODE_HEADER_BYTES + child_count * CHILD_SLOT_BYTES + prim_count * TRIANGLE_BYTES
    return (raw + NODE_ALIGNMENT - 1) // NODE_ALIGNMENT * NODE_ALIGNMENT


def assign_addresses(wide: WideBVH, base_address: int = BVH_BASE_ADDRESS) -> MemoryLayout:
    """Assign byte addresses to every node in depth-first order.

    Depth-first order keeps each subtree contiguous, which is how real
    builders lay out nodes to make coherent traversals cache-friendly —
    and what makes *incoherent* traversals miss, the effect the paper's
    L1D study (Fig. 6b) measures.
    """
    # Per depth: the internal nodes, their child counts, and their children.
    levels = []
    nodes = np.array([wide.root], dtype=np.int64)
    while True:
        parents = nodes[wide.child_count[nodes] > 0]
        if not len(parents):
            break
        counts = wide.child_count[parents]
        starts = _segment_starts(counts)
        nodes = np.repeat(wide.first_child[parents] - starts, counts)
        nodes += np.arange(len(nodes))
        levels.append((parents, counts, starts, nodes))

    wide.size_bytes = node_size_bytes(wide.child_count, wide.prim_count)
    subtree = wide.size_bytes.copy()
    for parents, _, starts, children in reversed(levels):
        subtree[parents] += np.add.reduceat(subtree[children], starts)
    # Depth first, a child follows its parent and its earlier siblings' subtrees.
    wide.address = np.zeros(wide.node_count, dtype=np.int64)
    wide.address[wide.root] = base_address
    for parents, counts, starts, children in levels:
        before = np.cumsum(subtree[children]) - subtree[children]
        wide.address[children] = before + np.repeat(
            wide.address[parents] + wide.size_bytes[parents] - before[starts], counts
        )
    wide.total_bytes = int(subtree[wide.root])
    return MemoryLayout(
        base_address=base_address,
        total_bytes=wide.total_bytes,
        node_count=wide.node_count,
    )
