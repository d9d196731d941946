"""One-call BVH construction: binary build, wide collapse, address layout."""

from __future__ import annotations

from repro.bvh.builder import build_binary_bvh
from repro.bvh.layout import assign_addresses
from repro.bvh.wide import WideBVH, collapse_to_wide
from repro.scene.scene import Scene

#: Branching factor used throughout the paper's walkthroughs (BVH6).
DEFAULT_WIDTH = 6


def build_bvh(
    scene: Scene,
    width: int = DEFAULT_WIDTH,
    max_leaf_size: int = 4,
) -> WideBVH:
    """Build a laid-out wide BVH ready for traversal and timing simulation.

    Args:
        scene: the scene to index.
        width: wide-BVH branching factor (paper uses BVH6).
        max_leaf_size: maximum triangles per leaf.

    Returns:
        A :class:`WideBVH` with node addresses assigned.
    """
    binary = build_binary_bvh(scene, max_leaf_size=max_leaf_size)
    wide = collapse_to_wide(binary, width=width)
    assign_addresses(wide)
    return wide
