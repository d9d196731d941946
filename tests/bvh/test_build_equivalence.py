"""The array BVH build emits exactly the tree of the per-node reference.

Every golden bakes in the tree, so :func:`repro.bvh.api.build_bvh` must
match ``tests/bvh/reference_build.py`` bit for bit: the binary node
arrays, the primitive order, the bytes of every bound, the wide nodes with
their child bounds and addresses, the working copies the tracer reads,
and the escape links the stackless tracer follows.

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
from repro.scene.generators import grid_mesh, scatter_mesh
from repro.scene.scene import Scene
from repro.trace.tracer import TraversalTables
from repro.traversal.stackless import EscapeTracer
from repro.workloads.lumibench import SCENE_NAMES, bench_scale, load_scene
from tests.bvh.reference_build import (
    reference_binary,
    reference_escape,
    reference_layout,
    reference_wide,
)


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
    reference_layout(ref)
    tables = TraversalTables(wide)

    def children(i):
        first = tables.first_child[i]
        return list(range(first, first + tables.child_count[i]))

    got_fields = [
        (i, children(i), depth, wide.leaf_prims(i), address, size)
        for i, (depth, address, size) in enumerate(
            zip(wide.depth.tolist(), tables.address, tables.size_bytes)
        )
    ]
    want_fields = [
        (n.index, n.children, n.depth, n.prim_ids, n.address, n.size_bytes)
        for n in ref.nodes
    ]
    assert got_fields == want_fields
    assert all(type(prim) is int for row in got_fields for prim in row[3])
    assert_same_bits(wide.prim_order, ref_order, "wide prim_order")
    for side in ("lo", "hi"):
        assert_same_bits(
            getattr(wide, side),
            np.stack([getattr(n.bounds, side) for n in ref.nodes]),
            f"wide bounds {side}",
        )
    for side, name in (("lo", "child_los"), ("hi", "child_his")):
        rows = getattr(wide, side)
        got = [
            rows[first : first + count]
            for first, count in zip(tables.first_child, tables.child_count)
        ]
        want = getattr(ref, name)
        assert [a.shape for a in got] == [a.shape for a in want], name
        assert_same_bits(np.concatenate(got), np.concatenate(want), name)
    assert wide.total_bytes == ref.total_bytes
    assert dict(zip(tables.address, range(wide.node_count))) == ref.address_to_node
    first_child, escape = reference_escape(ref)
    assert tables.first_child == first_child
    assert EscapeTracer(wide).escape == escape


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


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=10_000),
    max_leaf_size=st.sampled_from([1, 2, 4, 8]),
    width=st.integers(min_value=2, max_value=8),
)
def test_random_ties_and_signed_zeros_match_reference(
    count, seed, max_leaf_size, width
):
    # Each axis draws from a few values, -0.0 and 0.0 among them, so
    # centroids tie on random shapes.  Zero is the least x and the greatest
    # y of most nodes, so those bounds keep the sign their reduction order
    # leaves.
    axes = ([-0.0, 0.0, 0.5, 1.0], [-1.0, -0.5, -0.0, 0.0], [-1.0, -0.0, 0.0, 1.0])
    rng = np.random.default_rng(seed)
    verts = np.stack([rng.choice(values, size=(count, 3)) for values in axes], axis=2)
    assert_same_build(Scene("ties", verts), width=width, max_leaf_size=max_leaf_size)


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
