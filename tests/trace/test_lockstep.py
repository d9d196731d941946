"""A ray's trace does not depend on the batch it is traced in.

:meth:`Tracer.trace_batch` advances all rays of a batch together, one node
visit per pass.  Each ray must still get exactly the :class:`RayTrace` a
one-ray depth-first walk records: the spelled-out reference below is
that walk, one ray at a time and one prim at a time through the one-pair
kernels, shrinking ``best_t`` as it goes.
"""

from functools import lru_cache
from operator import itemgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh.api import build_bvh
from repro.geometry.intersect import moeller_trumbore, slab_test
from repro.geometry.ray import Ray
from repro.scene.generators import scatter_mesh
from repro.scene.scene import Scene
from repro.trace.events import NodeKind, RayKind, RayTrace, Step
from repro.trace.tracer import RayBatch, Tracer


def reference_trace(bvh, ray, any_hit=False):
    """One ray's depth-first walk, visit by visit (the oracle)."""
    tri_a = bvh.scene.vertices[:, 0, :]
    tri_e1 = bvh.scene.vertices[:, 1, :] - tri_a
    tri_e2 = bvh.scene.vertices[:, 2, :] - tri_a
    d0, d1, d2 = ray.direction.tolist()
    best_t, best_prim = ray.t_max, -1
    trace = RayTrace(ray_id=0, pixel=0, kind=RayKind.PRIMARY)
    stack = []
    current = bvh.root
    while True:
        pushes = []
        next_node = None
        count = int(bvh.child_count[current])
        if count:
            kind = NodeKind.INTERNAL
            tests = count
            c0 = int(bvh.first_child[current])
            with np.errstate(invalid="ignore"):
                hit, t_enter = slab_test(
                    ray.origin, ray.inv_direction, ray.t_min, best_t,
                    bvh.lo[c0 : c0 + count], bvh.hi[c0 : c0 + count],
                )
            hits = sorted(
                ((t_enter[i], c0 + i) for i in range(count) if hit[i]),
                key=itemgetter(0),
            )
            if hits:
                next_node = hits[0][1]
                for _, child in reversed(hits[1:]):
                    pushes.append(int(bvh.address[child]))
                    stack.append(child)
        else:
            kind = NodeKind.LEAF
            tests = int(bvh.prim_count[current])
            for prim in bvh.leaf_prims(current):
                t = moeller_trumbore(
                    ray.origin, d0, d1, d2, ray.direction, ray.t_min, best_t,
                    tri_a[prim], tri_e1[prim], tri_e2[prim],
                )
                if t is not None and t < best_t:
                    best_t, best_prim = t, prim
                    if any_hit:
                        break
        popped = False
        done = False
        if next_node is None:
            if any_hit and best_prim >= 0:
                done = True
            elif stack:
                next_node = stack.pop()
                popped = True
            else:
                done = True
        trace.steps.append(Step(
            int(bvh.address[current]), int(bvh.size_bytes[current]), kind,
            tests, pushes, popped,
        ))
        if done:
            break
        current = next_node
    trace.hit_prim = best_prim
    trace.hit_t = best_t if best_prim >= 0 else float("inf")
    return trace


@lru_cache(maxsize=None)
def scene_bvh(seed, width, duplicated):
    """A clutter scene; ``duplicated`` lists every triangle twice, so leaves
    hold prims that a ray hits at equal ``t``."""
    vertices = scatter_mesh(150, bounds_size=6.0, triangle_size=0.6, clusters=3, seed=seed)
    if duplicated:
        vertices = np.repeat(vertices, 2, axis=0)
    return build_bvh(Scene("clutter", vertices), width=width)


coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
rays = st.lists(
    st.tuples(
        st.tuples(coord, coord, coord),
        # Aim at a triangle's centroid plus an offset, so most rays reach
        # geometry and many hit.
        st.integers(0, 149),
        st.tuples(coord, coord, coord),
        st.sampled_from([1e30, 4.0, 1.5]),
        st.booleans(),
        # Keep only one component of some directions: axis-parallel rays.
        st.sampled_from([None, None, 0, 1, 2]),
    ),
    min_size=1,
    max_size=16,
)


def as_rays(bvh, draws):
    centroids = bvh.scene.vertices.mean(axis=1)
    out = []
    for origin, target, offset, t_max, any_hit, axis in draws:
        direction = centroids[target] + 0.1 * np.array(offset) - np.array(origin)
        if axis is not None or not direction.any():
            sign = -1.0 if direction[axis or 0] < 0.0 else 1.0
            direction = np.zeros(3)
            direction[axis or 0] = sign
        out.append((Ray(origin=origin, direction=direction, t_max=t_max), any_hit))
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2),
    width=st.sampled_from([2, 4, 6]),
    duplicated=st.booleans(),
    draws=rays,
)
def test_every_ray_of_a_batch_traces_as_when_alone(seed, width, duplicated, draws):
    bvh = scene_bvh(seed, width, duplicated)
    tracer = Tracer(bvh)
    labelled = as_rays(bvh, draws)
    count = len(labelled)
    batch = tracer.trace_batch(RayBatch.of(
        [ray for ray, _ in labelled],
        ray_ids=list(range(100, 100 + count)),
        pixels=list(range(count)),
        kinds=[RayKind.SHADOW if any_hit else RayKind.BOUNCE for _, any_hit in labelled],
        any_hit=[any_hit for _, any_hit in labelled],
    ))
    for k, (ray, any_hit) in enumerate(labelled):
        kind = RayKind.SHADOW if any_hit else RayKind.BOUNCE
        alone = tracer.trace(ray, ray_id=100 + k, pixel=k, kind=kind, any_hit=any_hit)
        want = reference_trace(bvh, ray, any_hit)
        want.ray_id, want.pixel, want.kind = 100 + k, k, kind
        assert batch[k] == alone == want
        assert float.hex(float(batch[k].hit_t)) == float.hex(float(want.hit_t))


def test_equal_t_prims_keep_the_first_in_leaf_order():
    """Two copies of one triangle: closest- and any-hit rays both take the
    copy the leaf lists first, as the sequential loop did."""
    triangle = np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]])
    bvh = build_bvh(Scene("twins", np.repeat(triangle, 2, axis=0)))
    ray = Ray(origin=np.array([0.25, 0.25, 0.0]), direction=np.array([0.0, 0.0, 1.0]))
    first = bvh.leaf_prims(bvh.root)[0]
    for any_hit in (False, True):
        trace = Tracer(bvh).trace(ray, any_hit=any_hit)
        assert (trace.hit_prim, trace.hit_t) == (first, 1.0)


def test_empty_batch_traces_nothing(small_bvh):
    assert Tracer(small_bvh).trace_batch(RayBatch.of([])) == []
