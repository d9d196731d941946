"""Restart-trail traversal tests: correctness and overhead direction."""

import numpy as np
import pytest

from repro.bvh.api import build_bvh
from repro.geometry.ray import Ray
from repro.geometry.vec import normalize, vec3
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene
from repro.trace.restart import restart_trail_trace
from repro.trace.tracer import Tracer


@pytest.fixture(scope="module")
def bvh():
    return build_bvh(
        Scene("clutter", scatter_mesh(400, bounds_size=8.0,
                                      triangle_size=0.5, seed=71))
    )


def random_rays(count, seed):
    rng = np.random.default_rng(seed)
    return [
        Ray(origin=rng.uniform(-10, 10, 3),
            direction=normalize(rng.normal(size=3)))
        for _ in range(count)
    ]


def test_matches_stack_based_closest_hit(bvh):
    tracer = Tracer(bvh)
    for ray in random_rays(50, seed=72):
        stack_result = tracer.trace(ray)
        restart_result = restart_trail_trace(bvh, ray)
        assert restart_result.hit_prim == stack_result.hit_prim
        if stack_result.hit:
            assert restart_result.hit_t == pytest.approx(stack_result.hit_t)


def test_miss_reports_no_hit(bvh):
    ray = Ray(origin=vec3(100, 100, 100), direction=vec3(1, 0, 0))
    result = restart_trail_trace(bvh, ray)
    assert not result.hit
    assert result.hit_t == float("inf")
    assert result.node_visits >= 1


def test_visits_exceed_stack_based(bvh):
    """The stackless trade-off: restarts cost extra node visits."""
    tracer = Tracer(bvh)
    dfs = 0
    stackless = 0
    for ray in random_rays(40, seed=73):
        dfs += tracer.trace(ray).step_count
        stackless += restart_trail_trace(bvh, ray).node_visits
    assert stackless > dfs


def test_restart_count_positive_on_hits(bvh):
    hit_rays = [
        ray for ray in random_rays(40, seed=74)
        if restart_trail_trace(bvh, ray).hit
    ]
    assert hit_rays
    assert any(
        restart_trail_trace(bvh, ray).restarts > 0 for ray in hit_rays
    )


def test_trail_depth_bounded_by_tree_depth(bvh):
    for ray in random_rays(20, seed=75):
        result = restart_trail_trace(bvh, ray)
        assert result.max_trail_depth <= bvh.max_depth() + 1


def test_single_node_bvh():
    scene = Scene("one", scatter_mesh(1, seed=1))
    tiny = build_bvh(scene)
    ray = Ray(origin=vec3(0, 0, 20), direction=vec3(0, 0, -1))
    result = restart_trail_trace(tiny, ray)
    assert result.node_visits == 1
    assert result.restarts == 0


@pytest.mark.parametrize("stack_entries", [0, 1, 2, 4, 8, 64])
def test_short_stack_hybrid_correct(bvh, stack_entries):
    """Laine's combined scheme finds the same closest hit at any capacity."""
    from repro.trace.restart import short_stack_restart_trace

    tracer = Tracer(bvh)
    for ray in random_rays(40, seed=76):
        solo = tracer.trace(ray)
        hybrid = short_stack_restart_trace(bvh, ray, stack_entries=stack_entries)
        assert hybrid.hit_prim == solo.hit_prim
        if solo.hit:
            assert hybrid.hit_t == pytest.approx(solo.hit_t)


def test_short_stack_monotone_in_capacity(bvh):
    """More stack entries -> fewer restarts and fewer node visits."""
    from repro.trace.restart import short_stack_restart_trace

    rays = random_rays(40, seed=77)
    totals = {}
    for capacity in (0, 2, 8):
        visits = restarts = 0
        for ray in rays:
            result = short_stack_restart_trace(bvh, ray, stack_entries=capacity)
            visits += result.node_visits
            restarts += result.restarts
        totals[capacity] = (visits, restarts)
    assert totals[0][0] >= totals[2][0] >= totals[8][0]
    assert totals[0][1] >= totals[2][1] >= totals[8][1]


def test_large_stack_never_restarts(bvh):
    """A stack deeper than any pending-sibling count degenerates to DFS."""
    from repro.trace.restart import short_stack_restart_trace

    for ray in random_rays(25, seed=78):
        result = short_stack_restart_trace(bvh, ray, stack_entries=128)
        assert result.restarts == 0
