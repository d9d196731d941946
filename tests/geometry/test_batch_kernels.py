"""The batch intersection kernels give the one-pair kernels' bits.

The lockstep tracer tests every (ray, child box) and (ray, triangle) pair
of a pass in one call, and its traces are pinned to the one-ray kernels'
results.  These properties check that contract row by row on inputs that
reach the kernels' edge cases: zero direction components (``+inf``
inverses and ``0 * inf`` NaN slabs), origins on a box face, degenerate
and parallel triangles (``|det| < 1e-12``) and repeated triangles, which
two prims of one leaf hit at equal ``t``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.intersect import (
    moeller_trumbore,
    moeller_trumbore_batch,
    slab_test,
)

#: Few distinct values, so faces, slab planes and vertices coincide often.
POOL = (-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0)
coord = st.one_of(
    st.sampled_from(POOL),
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
)
vector = st.tuples(coord, coord, coord)
direction = vector.filter(lambda d: any(c != 0.0 for c in d))
interval = st.sampled_from([(1e-4, 1e30), (0.0, 2.0), (1e-4, 0.75), (-1.0, 5.0)])


def inverse(directions):
    """:class:`~repro.geometry.ray.Ray`'s reciprocal rule."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(directions != 0.0, 1.0 / directions, np.inf)


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(
        b, dtype=np.float64
    ).tobytes()


@st.composite
def box_pairs(draw):
    count = draw(st.integers(1, 8))
    origins, directions, los, his, t_min, t_max = [], [], [], [], [], []
    for _ in range(count):
        lo = np.array(draw(vector))
        hi = lo + np.abs(np.array(draw(vector)))
        # Half the origins sit on a face or corner of their box.
        origin = np.array(draw(vector))
        if draw(st.booleans()):
            origin = np.where(draw(st.lists(st.booleans(), min_size=3, max_size=3)), lo, hi)
        lo_t, hi_t = draw(interval)
        origins.append(origin)
        directions.append(draw(direction))
        los.append(lo)
        his.append(hi)
        t_min.append(lo_t)
        t_max.append(hi_t)
    return (np.array(origins), np.array(directions, dtype=np.float64),
            np.array(t_min), np.array(t_max), np.array(los), np.array(his))


@settings(max_examples=100, deadline=None)
@given(box_pairs())
def test_batch_slab_test_matches_one_pair_calls(pairs):
    origins, directions, t_min, t_max, los, his = pairs
    invs = inverse(directions)
    with np.errstate(invalid="ignore", over="ignore"):
        hit, t_enter = slab_test(origins, invs, t_min, t_max, los, his)
        for k in range(len(origins)):
            want_hit, want_t = slab_test(
                origins[k], invs[k], t_min[k], t_max[k], los[k : k + 1], his[k : k + 1]
            )
            assert bool(hit[k]) == bool(want_hit[0])
            assert same_bits(t_enter[k], want_t[0])


@settings(max_examples=100, deadline=None)
@given(box_pairs())
def test_one_ray_against_many_boxes_matches_the_pair_rows(pairs):
    """The shape the per-ray tracer used: one ray, all of a node's children."""
    origins, directions, t_min, t_max, los, his = pairs
    count = len(origins)
    invs = inverse(directions)
    with np.errstate(invalid="ignore", over="ignore"):
        want_hit, want_t = slab_test(origins[0], invs[0], t_min[0], t_max[0], los, his)
        hit, t_enter = slab_test(
            np.repeat(origins[:1], count, axis=0), np.repeat(invs[:1], count, axis=0),
            np.repeat(t_min[:1], count), np.repeat(t_max[:1], count), los, his,
        )
    assert hit.tolist() == want_hit.tolist()
    assert same_bits(t_enter, want_t)


@st.composite
def triangle_pairs(draw):
    count = draw(st.integers(1, 8))
    rows = []
    for _ in range(count):
        if rows and draw(st.booleans()):
            # A repeated pair: one ray meets two prims at equal ``t``.
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
            continue
        a, b, c = (np.array(draw(vector)) for _ in range(3))
        if draw(st.booleans()):
            # Axis-aligned plane: rays parallel to it give ``det == 0``.
            b[2] = c[2] = a[2]
        elif draw(st.booleans()):
            # A sliver: ``|det|`` falls below 1e-12.
            b = a + np.array([1e-7, 0.0, 0.0])
            c = a + np.array([0.0, 1e-7, 0.0])
        origin = np.array(draw(vector))
        d = np.array(draw(direction), dtype=np.float64)
        if draw(st.booleans()):
            d[2] = 0.0
            if not d.any():
                d[0] = 1.0
        elif draw(st.booleans()):
            # Aim at the triangle's centroid, so many pairs hit.
            target = (a + b + c) / 3.0
            if (target != origin).any():
                d = target - origin
        rows.append((origin, d, a, b - a, c - a) + draw(interval))
    return rows


@settings(max_examples=100, deadline=None)
@given(triangle_pairs())
def test_batch_moeller_trumbore_matches_one_pair_calls(rows):
    origins, directions, a, e1, e2, t_min, t_max = (
        np.array([row[i] for row in rows], dtype=np.float64) for i in range(7)
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hit, t = moeller_trumbore_batch(origins, directions, t_min, t_max, a, e1, e2)
        for k in range(len(rows)):
            d0, d1, d2 = directions[k].tolist()
            want = moeller_trumbore(
                origins[k], d0, d1, d2, directions[k], float(t_min[k]),
                float(t_max[k]), a[k], e1[k], e2[k],
            )
            assert bool(hit[k]) == (want is not None)
            if want is not None:
                assert same_bits(t[k], want)


def test_repeated_triangle_hits_at_equal_t():
    """The fixture behind the equal-``t`` property: both rows agree bit for bit."""
    a = np.array([[0.0, 0.0, 1.0]] * 2)
    e1 = np.array([[1.0, 0.0, 0.0]] * 2)
    e2 = np.array([[0.0, 1.0, 0.0]] * 2)
    origins = np.array([[0.25, 0.25, 0.0]] * 2)
    directions = np.array([[0.0, 0.0, 1.0]] * 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        hit, t = moeller_trumbore_batch(
            origins, directions, np.full(2, 1e-4), np.full(2, 1e30), a, e1, e2
        )
    assert hit.tolist() == [True, True]
    assert t.tolist() == [1.0, 1.0]
