"""Binary BVH builder tests."""

import numpy as np
import pytest

from repro.bvh.builder import build_binary_bvh
from repro.bvh.validate import validate_binary
from repro.errors import BVHError
from repro.geometry.aabb import AABB
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene


@pytest.fixture(scope="module")
def cluttered_scene():
    return Scene("clutter", scatter_mesh(500, seed=11))


def test_empty_scene_raises():
    with pytest.raises(BVHError):
        build_binary_bvh(Scene("empty", np.zeros((0, 3, 3))))


def test_bad_leaf_size_raises(cluttered_scene):
    with pytest.raises(BVHError):
        build_binary_bvh(cluttered_scene, max_leaf_size=0)


def test_non_finite_vertex_raises():
    # A NaN bound once made the wide collapse expand one node forever.
    verts = scatter_mesh(50, seed=3)
    verts[7, 1, 0] = np.nan
    with pytest.raises(BVHError, match="non-finite"):
        build_binary_bvh(Scene("nan", verts))


def test_single_triangle_scene():
    scene = Scene("one", scatter_mesh(1, seed=1))
    bvh = build_binary_bvh(scene)
    assert bvh.node_count == 1
    assert bvh.prim_count[0] == 1
    assert list(bvh.leaf_prims(0)) == [0]


def test_valid_tree(cluttered_scene):
    validate_binary(build_binary_bvh(cluttered_scene))


@pytest.mark.parametrize("max_leaf", [1, 2, 4, 8])
def test_leaf_size_respected(cluttered_scene, max_leaf):
    bvh = build_binary_bvh(cluttered_scene, max_leaf_size=max_leaf)
    assert bvh.prim_count.max() <= max_leaf


def test_all_primitives_reachable(cluttered_scene):
    bvh = build_binary_bvh(cluttered_scene)
    assert sorted(bvh.prim_order) == list(range(cluttered_scene.triangle_count))


def test_root_bounds_cover_scene(cluttered_scene):
    bvh = build_binary_bvh(cluttered_scene)
    root = AABB(lo=bvh.lo[bvh.root], hi=bvh.hi[bvh.root])
    assert root.contains_box(cluttered_scene.bounds())


def test_internal_nodes_have_two_children(cluttered_scene):
    bvh = build_binary_bvh(cluttered_scene)
    internal = bvh.prim_count == 0
    assert (bvh.left[internal] >= 0).all()
    assert (bvh.right[internal] >= 0).all()


def test_identical_centroids_terminate():
    # All triangles at the same position: every axis ties, so only the
    # stable order decides, and the splits must still terminate.
    verts = np.tile(
        np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float), (20, 1, 1)
    )
    scene = Scene("coincident", verts)
    bvh = build_binary_bvh(scene, max_leaf_size=2)
    validate_binary(bvh)


def test_leaf_prims_on_internal_raises(cluttered_scene):
    bvh = build_binary_bvh(cluttered_scene)
    internal = int(np.flatnonzero(bvh.prim_count == 0)[0])
    with pytest.raises(BVHError):
        bvh.leaf_prims(internal)


def test_deterministic_build(cluttered_scene):
    a = build_binary_bvh(cluttered_scene)
    b = build_binary_bvh(cluttered_scene)
    assert a.node_count == b.node_count
    assert np.array_equal(a.prim_order, b.prim_order)
