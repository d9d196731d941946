"""Traversal correctness: the tracer must agree with brute force."""

import numpy as np
import pytest

from repro.bvh.api import build_bvh
from repro.geometry.intersect import ray_triangle_intersect
from repro.geometry.ray import Ray
from repro.geometry.vec import normalize, vec3
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene
from repro.trace.events import NodeKind, RayKind
from repro.trace.tracer import Tracer


@pytest.fixture(scope="module")
def scene():
    return Scene("clutter", scatter_mesh(300, bounds_size=8.0,
                                         triangle_size=0.5, seed=61))


@pytest.fixture(scope="module")
def tracer(scene):
    return Tracer(build_bvh(scene))


def brute_force(scene, ray):
    best_t, best_prim = float("inf"), -1
    for tri in scene.triangles():
        t = ray_triangle_intersect(ray, tri)
        if t is not None and t < best_t:
            best_t, best_prim = t, tri.prim_id
    return best_prim, best_t


def random_rays(count, seed):
    rng = np.random.default_rng(seed)
    rays = []
    for _ in range(count):
        origin = rng.uniform(-10, 10, size=3)
        direction = rng.normal(size=3)
        rays.append(Ray(origin=origin, direction=normalize(direction)))
    return rays


def test_matches_brute_force_on_random_rays(scene, tracer):
    for ray in random_rays(40, seed=62):
        result = tracer.trace(ray)
        prim, t = brute_force(scene, ray)
        assert result.hit_prim == prim
        if prim >= 0:
            assert result.hit_t == pytest.approx(t, rel=1e-9)


def test_miss_reports_no_hit(tracer):
    ray = Ray(origin=vec3(100, 100, 100), direction=vec3(1, 0, 0))
    result = tracer.trace(ray)
    assert not result.hit
    assert result.hit_prim == -1
    assert result.hit_t == float("inf")


def test_trace_events_balanced(scene, tracer):
    for ray in random_rays(20, seed=63):
        result = tracer.trace(ray)
        result.validate()


def test_first_step_is_root(tracer):
    ray = Ray(origin=vec3(0, 0, 20), direction=vec3(0, 0, -1))
    result = tracer.trace(ray)
    assert result.steps[0].address == tracer.bvh.address[tracer.bvh.root]


def node_at_address(bvh):
    """Map each node address back to its node index."""
    return {address: node for node, address in enumerate(bvh.address.tolist())}


def test_pushes_reference_real_nodes(tracer):
    nodes = node_at_address(tracer.bvh)
    for ray in random_rays(10, seed=64):
        trace = tracer.trace(ray)
        for step in trace.steps:
            for address in step.pushes:
                assert address in nodes


def test_popped_address_is_next_visit(tracer):
    """The value popped must be the next node visited (LIFO contract)."""
    for ray in random_rays(15, seed=65):
        trace = tracer.trace(ray)
        stack = []
        for i, step in enumerate(trace.steps):
            for address in step.pushes:
                stack.append(address)
            if step.popped:
                expected = stack.pop()
                assert trace.steps[i + 1].address == expected


def test_any_hit_stops_early(scene, tracer):
    # Find a ray that hits, then verify any-hit does no more work.
    for ray in random_rays(40, seed=66):
        closest = tracer.trace(ray)
        if closest.hit:
            any_hit = tracer.trace(ray, any_hit=True)
            assert any_hit.hit
            assert any_hit.step_count <= closest.step_count
            break
    else:
        pytest.fail("no hitting ray found")


def test_leaf_steps_count_triangle_tests(tracer):
    ray = Ray(origin=vec3(0, 0, 20), direction=vec3(0, 0, -1))
    trace = tracer.trace(ray)
    nodes = node_at_address(tracer.bvh)
    for step in trace.steps:
        node = nodes[step.address]
        if step.kind is NodeKind.LEAF:
            assert step.tests == len(tracer.bvh.leaf_prims(node))
        else:
            assert step.tests == tracer.bvh.child_count[node]


def test_ray_metadata_propagates(tracer):
    ray = Ray(origin=vec3(0, 0, 20), direction=vec3(0, 0, -1))
    result = tracer.trace(ray, ray_id=42, pixel=7, kind=RayKind.SHADOW)
    assert result.ray_id == 42
    assert result.pixel == 7
    assert result.kind is RayKind.SHADOW


def test_closest_hit_shrinks_t_max(scene, tracer):
    """Traversal with pruning visits no more nodes than without."""
    for ray in random_rays(5, seed=67):
        result = tracer.trace(ray)
        # Every visited internal node must plausibly intersect the ray
        # interval; weaker but fast sanity: step count bounded by node count.
        assert result.step_count <= tracer.bvh.node_count
