"""Structural validation of BVHs.

These checks back the property-based tests: every triangle reachable
exactly once, child bounds contained in parent bounds, addresses unique
and non-overlapping, leaf/internal invariants respected.
"""

from __future__ import annotations

from typing import Set

from repro.errors import BVHError
from repro.bvh.builder import NO_NODE, BinaryBVH
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
    """Raise :class:`BVHError` if the wide BVH violates an invariant.

    Besides coverage, bounds, depths and addresses, this checks the
    collapse's numbering: an internal node ``i`` has 2..``width``
    children, numbered consecutively after ``i`` and inside the node
    arrays, and a leaf's primitive range lies inside ``prim_order``.
    """
    node_count = wide.node_count
    first_child = wide.first_child.tolist()
    child_count = wide.child_count.tolist()
    first_prim = wide.first_prim.tolist()
    prim_count = wide.prim_count.tolist()
    depth = wide.depth.tolist()
    address = wide.address.tolist()
    prim_order = wide.prim_order.tolist()
    lo, hi = wide.lo, wide.hi
    seen_prims: Set[int] = set()
    addresses: Set[int] = set()
    stack = [wide.root]
    visited = 0
    while stack:
        index = stack.pop()
        visited += 1
        first, count = first_child[index], child_count[index]
        if count and prim_count[index]:
            raise BVHError(f"node {index} is both internal and leaf")
        if address[index] in addresses:
            raise BVHError(f"duplicate node address {address[index]:#x}")
        addresses.add(address[index])
        if not count:
            start = first_prim[index]
            stop = start + prim_count[index]
            if start == stop:
                raise BVHError(f"leaf {index} owns no primitives")
            if start < 0 or stop > len(prim_order):
                raise BVHError(
                    f"leaf {index} primitive range [{start}, {stop}) is "
                    f"outside prim_order"
                )
            for prim in prim_order[start:stop]:
                if prim in seen_prims:
                    raise BVHError(f"primitive {prim} reachable from two leaves")
                seen_prims.add(prim)
            continue
        if not 2 <= count <= wide.width:
            raise BVHError(
                f"node {index} has {count} children, expected 2..{wide.width}"
            )
        stop = first + count
        if first <= index or stop > node_count:
            raise BVHError(
                f"node {index} child range [{first}, {stop}) is outside "
                f"nodes ({index}, {node_count})"
            )
        for child in range(first, stop):
            if depth[child] != depth[index] + 1:
                raise BVHError(f"node {child} has wrong depth annotation")
            if not _contained(lo[index], hi[index], lo[child], hi[child]):
                raise BVHError(f"child {child} bounds escape parent {index} bounds")
            stack.append(child)
    if visited != node_count:
        raise BVHError(f"{node_count - visited} wide nodes unreachable from root")
    if seen_prims != set(range(wide.scene.triangle_count)):
        raise BVHError("wide BVH does not cover every scene primitive exactly once")


def _contained(parent_lo, parent_hi, child_lo, child_hi) -> bool:
    """Containment with a small epsilon for floating-point slack."""
    return bool(
        (child_lo >= parent_lo - _EPS).all() and (child_hi <= parent_hi + _EPS).all()
    )
