"""The array BVH build emits exactly the tree of the per-node reference.

Every golden bakes in the tree, so :func:`repro.bvh.api.build_bvh` must
match ``tests/bvh/reference_build.py`` bit for bit: the binary node
arrays, the primitive order, the bytes of every bound, the wide nodes with
their child-bound arrays and addresses, and the SoA mirror the tracer
reads.

The paper-scale CRNVL case runs only when ``REPRO_BENCH_SCALE`` selects
paper-true geometry::

    REPRO_BENCH_SCALE=1.0 pytest tests/bvh/test_build_equivalence.py -k fullscale
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh.api import build_bvh
from repro.bvh.builder import build_binary_bvh
from repro.bvh.layout import assign_addresses
from repro.bvh.soa import BVHSoA
from repro.scene.generators import grid_mesh, scatter_mesh
from repro.scene.scene import Scene
from repro.workloads.lumibench import SCENE_NAMES, bench_scale, load_scene
from tests.bvh.reference_build import reference_binary, reference_wide


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), what


def assert_same_build(scene, width=6, max_leaf_size=4):
    """The array build equals the reference, field by field and bit by bit."""
    binary = build_binary_bvh(scene, max_leaf_size=max_leaf_size)
    ref_nodes, ref_order = reference_binary(scene, max_leaf_size)
    for name in ("left", "right", "first_prim", "prim_count"):
        assert getattr(binary, name).tolist() == [
            getattr(node, name) for node in ref_nodes
        ], name
    assert_same_bits(binary.lo, np.stack([n.bounds.lo for n in ref_nodes]), "lo")
    assert_same_bits(binary.hi, np.stack([n.bounds.hi for n in ref_nodes]), "hi")
    assert_same_bits(binary.prim_order, ref_order, "prim_order")

    wide = build_bvh(scene, width=width, max_leaf_size=max_leaf_size)
    ref = reference_wide(scene, ref_nodes, ref_order, width=width)
    assign_addresses(ref)

    def node_fields(bvh):
        return [
            (n.index, n.children, n.depth, n.prim_ids, n.address, n.size_bytes)
            for n in bvh.nodes
        ]

    assert node_fields(wide) == node_fields(ref)
    assert all(type(prim) is int for node in wide.nodes for prim in node.prim_ids)
    for side in ("lo", "hi"):
        assert_same_bits(
            np.stack([getattr(n.bounds, side) for n in wide.nodes]),
            np.stack([getattr(n.bounds, side) for n in ref.nodes]),
            f"wide bounds {side}",
        )
    for name in ("child_los", "child_his"):
        got, want = getattr(wide, name), getattr(ref, name)
        assert [a.shape for a in got] == [a.shape for a in want], name
        assert_same_bits(np.concatenate(got), np.concatenate(want), name)
    assert wide.total_bytes == ref.total_bytes
    assert wide.address_to_node == ref.address_to_node
    got_soa, want_soa = wide.soa(), ref.soa()
    for slot in BVHSoA.__slots__:
        assert_same_bits(getattr(got_soa, slot), getattr(want_soa, slot), slot)


@pytest.mark.parametrize("name", SCENE_NAMES)
def test_reduced_scene_matches_reference(name):
    assert_same_build(load_scene(name))


@settings(max_examples=50, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=10_000),
    max_leaf_size=st.sampled_from([1, 2, 4, 8]),
    width=st.integers(min_value=2, max_value=8),
)
def test_random_scene_matches_reference(count, seed, max_leaf_size, width):
    scene = Scene("scatter", scatter_mesh(count, seed=seed))
    assert_same_build(scene, width=width, max_leaf_size=max_leaf_size)


@pytest.mark.parametrize("max_leaf_size", [1, 2, 4, 8])
def test_grid_ties_match_reference(max_leaf_size):
    # A flat grid: every centroid has y == 0, and rows and columns share
    # x and z, so most sort keys tie and the stable order decides.
    scene = Scene("grid", grid_mesh(12, 9))
    assert_same_build(scene, width=4, max_leaf_size=max_leaf_size)


@pytest.mark.parametrize("max_leaf_size", [1, 2, 4])
def test_coincident_triangles_match_reference(max_leaf_size):
    verts = np.tile(
        np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float), (20, 1, 1)
    )
    assert_same_build(Scene("coincident", verts), max_leaf_size=max_leaf_size)


def test_signed_zeros_match_reference():
    # -0.0 == 0.0, so both share a rank; a bound over a mix keeps the sign
    # a per-node reduction in the same order keeps.
    verts = grid_mesh(8, 8)
    verts[::3, :, 1] = -0.0
    assert_same_build(Scene("zeros", verts), max_leaf_size=2)


def test_ship_at_paper_scale_matches_reference():
    assert_same_build(load_scene("SHIP", scale=1.0))


@pytest.mark.skipif(
    bench_scale() is None, reason="paper-scale geometry needs REPRO_BENCH_SCALE=1.0"
)
def test_fullscale_crnvl_matches_reference():
    assert_same_build(load_scene("CRNVL"))
