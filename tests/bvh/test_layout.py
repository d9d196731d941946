"""Memory layout tests."""

import pytest

from repro.bvh.api import build_bvh
from repro.bvh.layout import (
    BVH_BASE_ADDRESS,
    NODE_ALIGNMENT,
    assign_addresses,
    node_size_bytes,
)
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene


@pytest.fixture(scope="module")
def bvh():
    return build_bvh(Scene("clutter", scatter_mesh(300, seed=31)))


def test_node_size_alignment():
    for children in range(7):
        for prims in range(5):
            size = node_size_bytes(children, prims)
            assert size % NODE_ALIGNMENT == 0
            assert size > 0


def test_node_size_monotone_in_children():
    assert node_size_bytes(6, 0) > node_size_bytes(2, 0)


def test_all_nodes_addressed(bvh):
    assert bvh.address.shape == (bvh.node_count,)
    assert (bvh.address >= BVH_BASE_ADDRESS).all()
    assert (bvh.size_bytes > 0).all()


def test_addresses_unique(bvh):
    addresses = bvh.address.tolist()
    assert len(set(addresses)) == len(addresses)


def test_addresses_non_overlapping(bvh):
    spans = sorted(
        (address, address + size)
        for address, size in zip(bvh.address.tolist(), bvh.size_bytes.tolist())
    )
    for (start_a, end_a), (start_b, _) in zip(spans, spans[1:]):
        assert end_a <= start_b


def test_root_at_base(bvh):
    assert bvh.address[bvh.root] == BVH_BASE_ADDRESS


def test_total_bytes_equals_span(bvh):
    end = int((bvh.address + bvh.size_bytes).max())
    assert bvh.total_bytes == end - BVH_BASE_ADDRESS


def test_sizes_follow_node_contents(bvh):
    assert bvh.size_bytes.tolist() == [
        node_size_bytes(children, prims)
        for children, prims in zip(bvh.child_count.tolist(), bvh.prim_count.tolist())
    ]


def test_layout_summary(bvh):
    layout = assign_addresses(bvh)
    assert layout.node_count == bvh.node_count
    assert layout.total_bytes == bvh.total_bytes
    assert layout.megabytes == pytest.approx(bvh.total_bytes / 1024 / 1024)


def test_children_contiguous_after_parent(bvh):
    # Depth-first layout: the first child immediately follows its parent.
    for node in range(bvh.node_count):
        if bvh.child_count[node]:
            first_child = bvh.first_child[node]
            assert bvh.address[first_child] == bvh.address[node] + bvh.size_bytes[node]
