"""Structural validation of BVHs.

These checks back the property-based tests: every triangle reachable
exactly once, child bounds contained in parent bounds, addresses unique
and non-overlapping, leaf/internal invariants respected.
"""

from __future__ import annotations

from typing import Set

from repro.errors import BVHError
from repro.bvh.builder import BinaryBVH
from repro.bvh.node import NO_NODE
from repro.bvh.wide import WideBVH

_EPS = 1e-9


def validate_binary(bvh: BinaryBVH) -> None:
    """Raise :class:`BVHError` if the binary BVH violates an invariant."""
    if not 0 <= bvh.root < bvh.node_count:
        raise BVHError("binary BVH has no root")
    left = bvh.left.tolist()
    right = bvh.right.tolist()
    prim_count = bvh.prim_count.tolist()
    seen_prims: Set[int] = set()
    stack = [bvh.root]
    visited = 0
    while stack:
        index = stack.pop()
        visited += 1
        children = (left[index], right[index])
        if prim_count[index] > 0:
            if children != (NO_NODE, NO_NODE):
                raise BVHError(f"leaf {index} has children")
            for prim in bvh.leaf_prims(index).tolist():
                if prim in seen_prims:
                    raise BVHError(f"primitive {prim} reachable from two leaves")
                seen_prims.add(prim)
        else:
            if NO_NODE in children:
                raise BVHError(f"internal node {index} is missing a child")
            for child in children:
                if not _contained(
                    bvh.lo[index], bvh.hi[index], bvh.lo[child], bvh.hi[child]
                ):
                    raise BVHError(
                        f"child {child} bounds escape parent {index} bounds"
                    )
                stack.append(child)
    if visited != bvh.node_count:
        raise BVHError(
            f"{bvh.node_count - visited} binary nodes unreachable from root"
        )
    if seen_prims != set(range(bvh.scene.triangle_count)):
        raise BVHError("binary BVH does not cover every scene primitive exactly once")


def validate_wide(wide: WideBVH) -> None:
    """Raise :class:`BVHError` if the wide BVH violates an invariant."""
    seen_prims: Set[int] = set()
    stack = [wide.root]
    visited = 0
    addresses: Set[int] = set()
    while stack:
        index = stack.pop()
        node = wide.nodes[index]
        visited += 1
        if node.children and node.prim_ids:
            raise BVHError(f"node {index} is both internal and leaf")
        if node.is_leaf and not node.prim_ids:
            raise BVHError(f"leaf {index} owns no primitives")
        if not node.is_leaf and node.child_count > wide.width:
            raise BVHError(
                f"node {index} has {node.child_count} children, width {wide.width}"
            )
        if node.address in addresses:
            raise BVHError(f"duplicate node address {node.address:#x}")
        addresses.add(node.address)
        for prim in node.prim_ids:
            if prim in seen_prims:
                raise BVHError(f"primitive {prim} reachable from two leaves")
            seen_prims.add(prim)
        for child in node.children:
            child_node = wide.nodes[child]
            if child_node.depth != node.depth + 1:
                raise BVHError(f"node {child} has wrong depth annotation")
            if not _contained(
                node.bounds.lo, node.bounds.hi, child_node.bounds.lo, child_node.bounds.hi
            ):
                raise BVHError(f"child {child} bounds escape parent {index} bounds")
            stack.append(child)
    if visited != wide.node_count:
        raise BVHError(f"{wide.node_count - visited} wide nodes unreachable from root")
    if seen_prims != set(range(wide.scene.triangle_count)):
        raise BVHError("wide BVH does not cover every scene primitive exactly once")


def _contained(parent_lo, parent_hi, child_lo, child_hi) -> bool:
    """Containment with a small epsilon for floating-point slack."""
    return bool(
        (child_lo >= parent_lo - _EPS).all() and (child_hi <= parent_hi + _EPS).all()
    )
