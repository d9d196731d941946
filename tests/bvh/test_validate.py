"""Validator tests: each must catch deliberately corrupted trees."""

import pytest

from repro.bvh.api import build_bvh
from repro.bvh.builder import build_binary_bvh
from repro.bvh.validate import validate_binary, validate_wide
from repro.errors import BVHError
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene


@pytest.fixture
def binary():
    return build_binary_bvh(Scene("clutter", scatter_mesh(200, seed=51)))


@pytest.fixture
def wide():
    return build_bvh(Scene("clutter", scatter_mesh(200, seed=51)))


def test_valid_binary_passes(binary):
    validate_binary(binary)


def test_valid_wide_passes(wide):
    validate_wide(wide)


def test_binary_detects_escaping_child_bounds(binary):
    child = binary.left[binary.root]
    binary.hi[child, 0] += 100.0
    with pytest.raises(BVHError):
        validate_binary(binary)


def test_binary_detects_duplicate_prims(binary):
    binary.prim_order[1] = binary.prim_order[0]
    with pytest.raises(BVHError):
        validate_binary(binary)


def first_leaf(wide, min_prims=1):
    return next(
        i
        for i in range(wide.node_count)
        if wide.child_count[i] == 0 and wide.prim_count[i] >= min_prims
    )


def first_internal_child(wide):
    root_first = int(wide.first_child[wide.root])
    return next(
        i
        for i in range(root_first, root_first + int(wide.child_count[wide.root]))
        if wide.child_count[i] > 0
    )


def test_wide_detects_escaping_child_bounds(wide):
    child = wide.first_child[wide.root]
    wide.lo[child, 2] -= 50.0
    with pytest.raises(BVHError, match="escape"):
        validate_wide(wide)


def test_wide_detects_duplicate_prims(wide):
    leaf = first_leaf(wide)
    other = next(
        i for i in range(leaf + 1, wide.node_count) if wide.child_count[i] == 0
    )
    wide.prim_order[wide.first_prim[other]] = wide.prim_order[wide.first_prim[leaf]]
    with pytest.raises(BVHError, match="two leaves"):
        validate_wide(wide)


def test_wide_detects_missing_prims(wide):
    leaf = first_leaf(wide, min_prims=2)
    wide.prim_count[leaf] -= 1
    with pytest.raises(BVHError, match="exactly once"):
        validate_wide(wide)


def test_wide_detects_overwide_node(wide):
    wide.child_count[wide.root] = wide.width + 1
    with pytest.raises(BVHError, match="children"):
        validate_wide(wide)


def test_wide_detects_single_child_node(wide):
    node = first_internal_child(wide)
    wide.child_count[node] = 1
    with pytest.raises(BVHError, match="1 children"):
        validate_wide(wide)


def test_wide_detects_child_range_past_the_arrays(wide):
    node = first_internal_child(wide)
    wide.first_child[node] = wide.node_count - 1
    with pytest.raises(BVHError, match="outside nodes"):
        validate_wide(wide)


def test_wide_detects_child_range_not_after_its_node(wide):
    node = first_internal_child(wide)
    wide.first_child[node] = node
    with pytest.raises(BVHError, match="outside nodes"):
        validate_wide(wide)


def test_wide_detects_prim_range_past_prim_order(wide):
    leaf = first_leaf(wide)
    wide.first_prim[leaf] = len(wide.prim_order)
    with pytest.raises(BVHError, match="outside prim_order"):
        validate_wide(wide)


def test_wide_detects_node_both_internal_and_leaf(wide):
    wide.prim_count[wide.root] = 1
    with pytest.raises(BVHError, match="both internal and leaf"):
        validate_wide(wide)


def test_wide_detects_bad_depth(wide):
    child = wide.first_child[wide.root]
    wide.depth[child] = 5
    with pytest.raises(BVHError, match="depth"):
        validate_wide(wide)


def test_wide_detects_duplicate_addresses(wide):
    child = wide.first_child[wide.root]
    wide.address[child] = wide.address[wide.root]
    with pytest.raises(BVHError, match="duplicate node address"):
        validate_wide(wide)


def test_wide_detects_empty_leaf(wide):
    wide.prim_count[first_leaf(wide)] = 0
    with pytest.raises(BVHError, match="owns no primitives"):
        validate_wide(wide)


def test_wide_detects_unreachable_nodes(wide):
    wide.child_count[wide.root] -= 1
    with pytest.raises(BVHError, match="unreachable"):
        validate_wide(wide)
