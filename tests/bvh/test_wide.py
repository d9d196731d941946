"""Wide-BVH collapse tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh.api import build_bvh
from repro.bvh.builder import NO_NODE, build_binary_bvh
from repro.bvh.validate import validate_wide
from repro.bvh.wide import collapse_to_wide
from repro.errors import BVHError
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene


@pytest.fixture(scope="module")
def scene():
    return Scene("clutter", scatter_mesh(400, seed=21))


@pytest.fixture(scope="module")
def binary(scene):
    return build_binary_bvh(scene)


def test_invalid_width_raises(binary):
    with pytest.raises(BVHError):
        collapse_to_wide(binary, width=1)


def children(wide, node):
    first = int(wide.first_child[node])
    return range(first, first + int(wide.child_count[node]))


@pytest.mark.parametrize("width", [2, 4, 6, 8])
def test_width_respected(binary, width):
    wide = collapse_to_wide(binary, width=width)
    assert wide.child_count.max() <= width
    validate_wide_no_addresses(wide)


def validate_wide_no_addresses(wide):
    """Structural checks that don't need the layout pass."""
    seen = set()
    stack = [wide.root]
    while stack:
        node = stack.pop()
        for prim in wide.leaf_prims(node):
            assert prim not in seen
            seen.add(prim)
        stack.extend(children(wide, node))
    assert seen == set(range(wide.scene.triangle_count))


def test_wider_bvh_has_fewer_nodes(binary):
    narrow = collapse_to_wide(binary, width=2)
    wide = collapse_to_wide(binary, width=8)
    assert wide.node_count <= narrow.node_count


def test_wider_bvh_is_shallower(binary):
    narrow = collapse_to_wide(binary, width=2)
    wide = collapse_to_wide(binary, width=8)
    assert wide.max_depth() <= narrow.max_depth()


def test_depth_annotations_consistent(binary):
    wide = collapse_to_wide(binary)
    for node in range(wide.node_count):
        for child in children(wide, node):
            assert wide.depth[child] == wide.depth[node] + 1


def test_child_arrays_match_children(binary):
    """A node's child bounds are the rows ``lo[f : f + c]``.

    That needs siblings numbered consecutively after their parent, each
    non-root node in exactly one parent's range.
    """
    wide = collapse_to_wide(binary)
    internal = np.flatnonzero(wide.child_count > 0)
    assert (wide.first_child[internal] > internal).all()
    # Every non-root node is exactly one node's child.
    owned = np.concatenate([np.asarray(children(wide, i)) for i in internal])
    assert sorted(owned.tolist()) == list(range(1, wide.node_count))


def test_leaves_have_no_first_child(binary):
    wide = collapse_to_wide(binary)
    leaves = wide.child_count == 0
    assert (wide.first_child[leaves] == NO_NODE).all()
    assert (wide.prim_count[leaves] > 0).all()
    assert (wide.prim_count[~leaves] == 0).all()


def test_single_triangle_collapse():
    scene = Scene("one", scatter_mesh(1, seed=1))
    wide = build_bvh(scene)
    assert wide.node_count == 1
    assert wide.child_count[0] == 0
    assert wide.leaf_prims(0) == [0]


def test_leaf_prims_preserved(binary, scene):
    wide = collapse_to_wide(binary)
    total = sum(len(wide.leaf_prims(i)) for i in range(wide.node_count))
    assert total == scene.triangle_count


def test_internal_nodes_have_multiple_children(binary):
    wide = collapse_to_wide(binary, width=6)
    internal = wide.child_count[wide.child_count > 0]
    assert len(internal) > 1
    assert (internal >= 2).all()


@settings(max_examples=20, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=60),
    width=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_collapse_valid_for_random_scenes(count, width, seed):
    scene = Scene("rand", scatter_mesh(count, seed=seed))
    wide = build_bvh(scene, width=width)
    validate_wide(wide)
