"""Stackless (escape-link) traversal: correctness and zero-stack shape."""

import numpy as np
import pytest

from repro.bvh.builder import NO_NODE
from repro.bvh.layout import BVH_BASE_ADDRESS, assign_addresses
from repro.core.api import time_traces
from repro.errors import StackError
from repro.geometry.ray import Ray
from repro.gpu.config import GPUConfig
from repro.trace.tracer import Tracer
from repro.traversal import StacklessStrategy
from repro.traversal.stackless import EscapeTracer, StacklessState


def _fuzz_rays(bvh, count, seed):
    """Rays from random origins through random points of the scene AABB."""
    rng = np.random.default_rng(seed)
    lo, hi = bvh.lo[bvh.root], bvh.hi[bvh.root]
    span = hi - lo
    rays = []
    for _ in range(count):
        origin = lo - span * 0.5 + rng.random(3) * span * 2.0
        target = lo + rng.random(3) * span
        direction = target - origin
        if np.linalg.norm(direction) < 1e-9:
            direction = np.array([0.0, 0.0, 1.0])
        rays.append(Ray(origin=origin, direction=direction))
    return rays


# -- hit-record equivalence with the reference tracer ---------------------


def test_closest_hits_match_reference(small_bvh):
    reference = Tracer(small_bvh)
    stackless = EscapeTracer(small_bvh)
    for ray in _fuzz_rays(small_bvh, 120, seed=11):
        want = reference.trace(ray)
        got = stackless.trace(ray)
        assert got.hit_prim == want.hit_prim
        if want.hit:
            assert got.hit_t == pytest.approx(want.hit_t)


def test_any_hit_agrees_on_occlusion(deep_bvh):
    reference = Tracer(deep_bvh)
    stackless = EscapeTracer(deep_bvh)
    for ray in _fuzz_rays(deep_bvh, 60, seed=13):
        want = reference.trace(ray, any_hit=True)
        got = stackless.trace(ray, any_hit=True)
        assert got.hit == want.hit


# -- escape-link structure ------------------------------------------------


def _dfs_order(bvh):
    """Every node in the layout's depth-first (slot) order."""
    order = []
    stack = [bvh.root]
    while stack:
        node = stack.pop()
        order.append(node)
        first = int(bvh.first_child[node])
        stack.extend(reversed(range(first, first + int(bvh.child_count[node]))))
    return order


def test_escape_index_covers_layout_dfs(small_bvh):
    tracer = EscapeTracer(small_bvh)
    order = _dfs_order(small_bvh)
    assert sorted(order) == list(range(small_bvh.node_count))
    # Addresses ascend in the layout's depth-first order.
    assert small_bvh.address[order].tolist() == sorted(small_bvh.address.tolist())
    # The escape chain from the DFS-first node visits every node once:
    # exhaustive traversal (all boxes hit) is exactly the static order.
    visited = []
    current = small_bvh.root
    while current != NO_NODE:
        visited.append(current)
        child = tracer.tables.first_child[current]
        current = child if child != NO_NODE else tracer.escape[current]
    assert visited == order


def test_root_escapes_to_termination(small_bvh):
    assert EscapeTracer(small_bvh).escape[small_bvh.root] == NO_NODE


def test_leaves_have_no_first_child(small_bvh):
    first_child = EscapeTracer(small_bvh).tables.first_child
    for index, count in enumerate(small_bvh.child_count.tolist()):
        if count:
            assert first_child[index] != NO_NODE
        else:
            assert first_child[index] == NO_NODE


# -- tracers read the layout they are built on ---------------------------


def test_tracers_read_the_current_layout(small_scene):
    from repro.bvh.api import build_bvh

    bvh = build_bvh(small_scene)
    ray = _fuzz_rays(bvh, 1, seed=17)[0]
    before = [
        [step.address for step in tracer.trace(ray).steps]
        for tracer in (Tracer(bvh), EscapeTracer(bvh))
    ]
    # Nothing derived is cached on the BVH: moving the layout moves the
    # addresses every tracer built afterwards emits.
    assign_addresses(bvh, base_address=2 * BVH_BASE_ADDRESS)
    after = [
        [step.address for step in tracer.trace(ray).steps]
        for tracer in (Tracer(bvh), EscapeTracer(bvh))
    ]
    for old, new in zip(before, after):
        assert new == [address + BVH_BASE_ADDRESS for address in old]


# -- the no-stack lane state ---------------------------------------------


def test_stackless_state_refuses_stack_ops():
    state = StacklessState(warp_size=32)
    assert state.has_stack is False
    assert state.depth(0) == 0
    assert state.contents(0) == []
    with pytest.raises(StackError):
        state.push(0, 0x40)
    with pytest.raises(StackError):
        state.pop(0)


# -- end-to-end: phase one emits no stack events, phase two counts none ---


def test_stackless_workload_has_no_stack_events(small_bvh):
    workload = StacklessStrategy().build_workload(
        small_bvh, width=6, height=6, spp=1, max_bounces=2, seed=5
    )
    assert workload.ray_count > 0
    for trace in workload.all_traces:
        for step in trace.steps:
            assert step.pushes == []
            assert not step.popped


def test_stackless_simulation_counts_zero_stack_traffic(small_bvh):
    strategy = StacklessStrategy()
    workload = strategy.build_workload(
        small_bvh, width=6, height=6, spp=1, max_bounces=2, seed=5
    )
    result = time_traces(
        workload.all_traces,
        config=GPUConfig(rb_stack_entries=8, sh_stack_entries=8,
                         skewed_bank_access=True),
        verify_pops=False,
        strategy=strategy,
    )
    counters = result.counters.as_dict()
    for name, value in counters.items():
        if name.startswith("stack_"):
            assert value == 0, f"{name} should be zero under stackless"
    assert result.cycles > 0
    # adapt_config returned the SH carve-out to the L1D.
    assert result.config.sh_stack_entries == 0
