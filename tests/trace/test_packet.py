"""Packet traversal tests."""

import numpy as np
import pytest

from repro.bvh.api import build_bvh
from repro.geometry.ray import Ray
from repro.geometry.vec import normalize, vec3
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene
from repro.trace.packet import packet_trace
from repro.trace.tracer import Tracer


@pytest.fixture(scope="module")
def bvh():
    return build_bvh(
        Scene("clutter", scatter_mesh(300, bounds_size=8.0,
                                      triangle_size=0.5, seed=81))
    )


def coherent_rays(count):
    """Parallel rays through a small window — a primary-like packet."""
    return [
        Ray(origin=vec3(-0.5 + 0.05 * i, 0.3, 12.0), direction=vec3(0, 0, -1))
        for i in range(count)
    ]


def incoherent_rays(count, seed=82):
    rng = np.random.default_rng(seed)
    return [
        Ray(origin=rng.uniform(-6, 6, 3), direction=normalize(rng.normal(size=3)))
        for _ in range(count)
    ]


def test_hits_match_per_ray_traversal(bvh):
    tracer = Tracer(bvh)
    for rays in (coherent_rays(8), incoherent_rays(8)):
        packet = packet_trace(bvh, rays)
        for i, ray in enumerate(rays):
            solo = tracer.trace(ray)
            assert packet.hit_prims[i] == solo.hit_prim
            if solo.hit:
                assert packet.hit_ts[i] == pytest.approx(solo.hit_t)


def test_single_ray_packet_equals_solo(bvh):
    ray = incoherent_rays(1)[0]
    packet = packet_trace(bvh, [ray])
    solo = Tracer(bvh).trace(ray)
    assert packet.hit_prims[0] == solo.hit_prim


def test_shared_stack_amortizes_on_coherent_rays(bvh):
    """One group stack pushes far less than 8 per-ray stacks combined."""
    rays = coherent_rays(8)
    packet = packet_trace(bvh, rays)
    tracer = Tracer(bvh)
    solo_pushes = sum(
        sum(len(step.pushes) for step in tracer.trace(ray).steps)
        for ray in rays
    )
    assert packet.stack_pushes < solo_pushes


def test_group_visits_union_of_paths(bvh):
    """Node visits for the group are at most the sum of solo visits but
    at least the maximum."""
    rays = incoherent_rays(6)
    packet = packet_trace(bvh, rays)
    tracer = Tracer(bvh)
    solo_visits = [tracer.trace(ray).step_count for ray in rays]
    assert packet.node_visits <= sum(solo_visits)
    assert packet.node_visits >= max(solo_visits)


def test_incoherent_group_wastes_tests(bvh):
    """The paper's criticism: divergent packets drag every ray through
    the union of paths, inflating per-ray test counts."""
    coherent = packet_trace(bvh, coherent_rays(8))
    incoherent = packet_trace(bvh, incoherent_rays(8))
    coherent_tests_per_visit = coherent.ray_box_tests / coherent.node_visits
    incoherent_tests_per_visit = incoherent.ray_box_tests / incoherent.node_visits
    # Per node visit the work is similar, but the incoherent group visits
    # many more nodes overall for the same ray count.
    assert incoherent.node_visits > coherent.node_visits
    assert coherent_tests_per_visit == pytest.approx(
        incoherent_tests_per_visit, rel=0.5
    )


def test_all_missing_packet(bvh):
    rays = [
        Ray(origin=vec3(100, 100, 100), direction=vec3(0, 1, 0))
        for _ in range(4)
    ]
    packet = packet_trace(bvh, rays)
    assert packet.hit_prims == [-1] * 4
    assert all(t == float("inf") for t in packet.hit_ts)
    assert packet.node_visits >= 1
