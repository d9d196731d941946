"""Validator tests: each must catch deliberately corrupted trees."""

import pytest

from repro.bvh.api import build_bvh
from repro.bvh.builder import build_binary_bvh
from repro.bvh.validate import validate_binary, validate_wide
from repro.errors import BVHError
from repro.geometry.vec import vec3
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


def test_wide_detects_escaping_child_bounds(wide):
    child = wide.nodes[wide.root].children[0]
    wide.nodes[child].bounds.lo[2] -= 50.0
    with pytest.raises(BVHError):
        validate_wide(wide)


def test_wide_detects_duplicate_prims(wide):
    leaves = [n for n in wide.nodes if n.is_leaf]
    leaves[1].prim_ids[0] = leaves[0].prim_ids[0]
    with pytest.raises(BVHError):
        validate_wide(wide)


def test_wide_detects_missing_prims(wide):
    leaf = next(n for n in wide.nodes if n.is_leaf and len(n.prim_ids) > 1)
    leaf.prim_ids.pop()
    with pytest.raises(BVHError):
        validate_wide(wide)


def test_wide_detects_overwide_node(wide):
    node = wide.nodes[wide.root]
    node.children.extend([node.children[0]] * 10)
    with pytest.raises(BVHError):
        validate_wide(wide)


def test_wide_detects_bad_depth(wide):
    child = wide.nodes[wide.root].children[0]
    wide.nodes[child].depth = 5
    with pytest.raises(BVHError):
        validate_wide(wide)


def test_wide_detects_duplicate_addresses(wide):
    child = wide.nodes[wide.root].children[0]
    wide.nodes[child].address = wide.nodes[wide.root].address
    with pytest.raises(BVHError):
        validate_wide(wide)


def test_wide_detects_empty_leaf(wide):
    leaf = next(n for n in wide.nodes if n.is_leaf)
    leaf.prim_ids.clear()
    with pytest.raises(BVHError):
        validate_wide(wide)
