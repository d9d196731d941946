"""Reference BVH build: the per-node median builder, the object collapse,
the per-node layout and the escape-link walk.

These are the routines that :mod:`repro.bvh.builder`, :mod:`repro.bvh.wide`,
:mod:`repro.bvh.layout` and the stackless tracer replaced with array code.
The builder places one node at a time, each sorting its own primitives
with a stable argsort; the collapse expands slots through ``AABB`` objects
into a list of node objects and stacks each node's child bounds; the
layout walks those objects depth first; the escape walk links them.  Every
golden bakes in the tree they emit, so ``test_build_equivalence.py``
requires the array build to match them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.bvh.builder import NO_NODE
from repro.bvh.layout import BVH_BASE_ADDRESS, node_size_bytes
from repro.geometry.aabb import AABB, surface_area
from repro.scene.scene import Scene


@dataclass
class RefNode:
    """A node of the reference binary tree."""

    bounds: AABB
    left: int = NO_NODE
    right: int = NO_NODE
    first_prim: int = 0
    prim_count: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.prim_count > 0


def _range_bounds(los: np.ndarray, his: np.ndarray, ids: np.ndarray) -> AABB:
    return AABB(lo=los[ids].min(axis=0), hi=his[ids].max(axis=0))


def reference_binary(
    scene: Scene, max_leaf_size: int = 4
) -> Tuple[List[RefNode], np.ndarray]:
    """The median binary BVH built node by node: ``(nodes, prim_order)``."""
    los = scene.vertices.min(axis=1)
    his = scene.vertices.max(axis=1)
    centroids = scene.centroids()
    all_ids = np.arange(scene.triangle_count, dtype=np.int64)
    nodes = [RefNode(bounds=_range_bounds(los, his, all_ids))]
    leaves: List[np.ndarray] = []
    next_prim_offset = 0
    # Work stack of (node_index, prim ids to place under it).
    work = [(0, all_ids)]
    while work:
        node_index, ids = work.pop()
        node = nodes[node_index]
        if len(ids) <= max_leaf_size:
            node.first_prim = next_prim_offset
            node.prim_count = len(ids)
            leaves.append(ids)
            next_prim_offset += len(ids)
            continue
        cents = centroids[ids]
        axis = int(np.argmax(cents.max(axis=0) - cents.min(axis=0)))
        order = ids[np.argsort(cents[:, axis], kind="stable")]
        mid = len(order) // 2
        node.left = len(nodes)
        nodes.append(RefNode(bounds=_range_bounds(los, his, order[:mid])))
        node.right = len(nodes)
        nodes.append(RefNode(bounds=_range_bounds(los, his, order[mid:])))
        # LIFO order: right first so left subtrees materialize first.
        work.append((node.right, order[mid:]))
        work.append((node.left, order[:mid]))
    return nodes, np.concatenate(leaves)


def _gather_wide_children(
    nodes: List[RefNode], binary_root: int, width: int
) -> List[int]:
    """Pick up to ``width`` binary-node indices forming one wide node's children."""
    slots = [binary_root]
    while len(slots) < width:
        # Expand the internal slot with the largest surface area.
        best = -1
        best_area = -1.0
        for pos, b_index in enumerate(slots):
            node = nodes[b_index]
            if node.is_leaf:
                continue
            area = surface_area(node.bounds)
            if area > best_area:
                best_area = area
                best = pos
        if best < 0:
            break  # all slots are leaves
        node = nodes[slots[best]]
        slots[best : best + 1] = [node.left, node.right]
    return slots


@dataclass
class RefWideNode:
    """A node of the reference wide tree."""

    index: int
    bounds: AABB
    children: List[int] = field(default_factory=list)
    prim_ids: List[int] = field(default_factory=list)
    address: int = 0
    size_bytes: int = 0
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def child_count(self) -> int:
        return len(self.children)


@dataclass
class RefWide:
    """The reference wide tree: node objects plus per-node child bounds."""

    scene: Scene
    width: int
    nodes: List[RefWideNode] = field(default_factory=list)
    root: int = 0
    child_los: List[np.ndarray] = field(default_factory=list)
    child_his: List[np.ndarray] = field(default_factory=list)
    address_to_node: Dict[int, int] = field(default_factory=dict)
    total_bytes: int = 0


def reference_wide(
    scene: Scene, nodes: List[RefNode], prim_order: np.ndarray, width: int = 6
) -> RefWide:
    """Collapse the reference binary tree into a wide tree (not laid out)."""

    def leaf_prims(index: int) -> list:
        node = nodes[index]
        return list(prim_order[node.first_prim : node.first_prim + node.prim_count])

    wide = RefWide(scene=scene, width=width)
    wide.nodes.append(RefWideNode(index=0, bounds=nodes[0].bounds, depth=0))
    # Work stack of (wide node index, binary node index backing it).
    work: List[Tuple[int, int]] = []
    if nodes[0].is_leaf:
        wide.nodes[0].prim_ids = leaf_prims(0)
    else:
        work.append((0, 0))
    while work:
        wide_index, binary_index = work.pop()
        parent = wide.nodes[wide_index]
        for child_binary in _gather_wide_children(nodes, binary_index, width):
            child_node = nodes[child_binary]
            child = RefWideNode(
                index=len(wide.nodes), bounds=child_node.bounds, depth=parent.depth + 1
            )
            wide.nodes.append(child)
            parent.children.append(child.index)
            if child_node.is_leaf:
                child.prim_ids = leaf_prims(child_binary)
            else:
                work.append((child.index, child_binary))
    for node in wide.nodes:
        if node.is_leaf:
            wide.child_los.append(np.zeros((0, 3)))
            wide.child_his.append(np.zeros((0, 3)))
        else:
            wide.child_los.append(
                np.stack([wide.nodes[c].bounds.lo for c in node.children])
            )
            wide.child_his.append(
                np.stack([wide.nodes[c].bounds.hi for c in node.children])
            )
    return wide


def reference_layout(wide: RefWide, base_address: int = BVH_BASE_ADDRESS) -> None:
    """Assign addresses node by node in depth-first order."""
    cursor = base_address
    stack = [wide.root]
    while stack:
        index = stack.pop()
        node = wide.nodes[index]
        node.address = cursor
        node.size_bytes = node_size_bytes(node.child_count, len(node.prim_ids))
        wide.address_to_node[cursor] = index
        cursor += node.size_bytes
        # Reversed push so children come out in left-to-right order.
        for child in reversed(node.children):
            stack.append(child)
    wide.total_bytes = cursor - base_address


def reference_escape(wide: RefWide) -> Tuple[List[int], List[int]]:
    """Skip pointers by a depth-first walk: ``(first_child, escape)``.

    A node's own escape link is final before its children are visited,
    so each last child inherits it.
    """
    count = len(wide.nodes)
    first_child = [NO_NODE] * count
    escape = [NO_NODE] * count
    stack = [wide.root]
    while stack:
        index = stack.pop()
        children = wide.nodes[index].children
        if not children:
            continue
        first_child[index] = children[0]
        for pos, child in enumerate(children):
            escape[child] = (
                children[pos + 1] if pos + 1 < len(children) else escape[index]
            )
        for child in reversed(children):
            stack.append(child)
    return first_child, escape
