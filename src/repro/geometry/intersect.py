"""Intersection kernels: slab ray/AABB and Moeller-Trumbore ray/triangle.

These are the two tests the paper's RT unit performs in hardware (its
ray-box and ray-triangle operation units, Fig. 2).  Both come in a form
that tests many (ray, box) or (ray, triangle) pairs in one numpy call:
the tracer advances a whole wave of rays per pass, and each row of such a
call gives the same bits as the one-ray test.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.ray import Ray
from repro.geometry.triangle import Triangle


def ray_aabb_intersect(ray: Ray, box: AABB) -> Optional[Tuple[float, float]]:
    """Slab test of one ray against one box.

    Returns the entry/exit parameters ``(t_enter, t_exit)`` clipped to the
    ray's interval, or ``None`` when there is no overlap.  A ray originating
    inside the box reports ``t_enter == ray.t_min``.
    """
    if box.is_empty():
        return None
    t1 = (box.lo - ray.origin) * ray.inv_direction
    t2 = (box.hi - ray.origin) * ray.inv_direction
    t_near = np.minimum(t1, t2)
    t_far = np.maximum(t1, t2)
    # NaNs arise when a zero direction component meets a coincident slab
    # (0 * inf); treating them as non-constraining matches robust slab tests.
    t_enter = float(np.nanmax(np.append(t_near, ray.t_min)))
    t_exit = float(np.nanmin(np.append(t_far, ray.t_max)))
    if t_enter > t_exit:
        return None
    return t_enter, t_exit


def slab_test(
    origin: np.ndarray,
    inv_direction: np.ndarray,
    t_min,
    t_max,
    los: np.ndarray,
    his: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared slab kernel: ``k`` (ray, box) pairs.

    ``los`` / ``his`` are the ``(k, 3)`` box corners.  The ray is either
    one ray, with ``(3,)`` ``origin`` and ``inv_direction`` and scalar
    ``t_min`` / ``t_max``, or one ray per box: ``(k, 3)`` rows and ``(k,)``
    intervals.  Each row reduces its own three slabs, so a pair gives the
    same bits either way.

    Callers are expected to hoist ``np.errstate(invalid="ignore")``
    around traversal loops; NaNs from ``0 * inf`` slab degeneracies are
    ignored by the nan-reductions either way.
    """
    t1 = (los - origin) * inv_direction
    t2 = (his - origin) * inv_direction
    t_near = np.minimum(t1, t2)
    t_far = np.maximum(t1, t2)
    # fmax/fmin ignore NaN operands exactly like nanmax/nanmin (verified
    # bitwise) but skip the python-level wrapper, which dominates on the
    # small arrays this kernel sees.  All-NaN rows cannot occur: a ray
    # direction has at least one non-zero component.
    t_enter = np.maximum(np.fmax.reduce(t_near, axis=-1), t_min)
    t_exit = np.minimum(np.fmin.reduce(t_far, axis=-1), t_max)
    return t_enter <= t_exit, t_enter


def ray_aabb_intersect_batch(
    ray: Ray, los: np.ndarray, his: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Slab test of one ray against ``k`` boxes at once.

    Args:
        ray: the ray to test.
        los: ``(k, 3)`` array of box minimum corners.
        his: ``(k, 3)`` array of box maximum corners.

    Returns:
        ``(hit, t_enter)`` — a boolean mask of shape ``(k,)`` and the entry
        parameter for each box (meaningful only where ``hit`` is True).
    """
    with np.errstate(invalid="ignore"):
        return slab_test(
            ray.origin, ray.inv_direction, ray.t_min, ray.t_max, los, his
        )


def moeller_trumbore(
    origin: np.ndarray,
    d0: float,
    d1: float,
    d2: float,
    direction: np.ndarray,
    t_min: float,
    t_max: float,
    a: np.ndarray,
    e1: np.ndarray,
    e2: np.ndarray,
) -> Optional[float]:
    """Moeller-Trumbore core on precomputed edge vectors.

    ``e1`` / ``e2`` are ``b - a`` / ``c - a`` as float64 rows.  The two
    cross products are expanded over their components as Python floats,
    which is bitwise identical to ``np.cross`` on IEEE doubles and much
    cheaper on three elements.  The four dot products stay on ``np.dot``:
    its reduction order is not reproducible by plain scalar multiply-adds,
    and the bit-exactness contract pins this kernel to the historical
    ``np.dot``-based results.
    """
    f0, f1, f2 = e2.tolist()
    pvec = np.array((d1 * f2 - d2 * f1, d2 * f0 - d0 * f2, d0 * f1 - d1 * f0))
    det = float(np.dot(e1, pvec))
    if abs(det) < 1e-12:
        return None
    inv_det = 1.0 / det
    tvec = origin - a
    u = float(np.dot(tvec, pvec)) * inv_det
    if u < 0.0 or u > 1.0:
        return None
    tv0, tv1, tv2 = tvec
    g0, g1, g2 = e1.tolist()
    qvec = np.array(
        (tv1 * g2 - tv2 * g1, tv2 * g0 - tv0 * g2, tv0 * g1 - tv1 * g0)
    )
    v = float(np.dot(direction, qvec)) * inv_det
    if v < 0.0 or u + v > 1.0:
        return None
    t = float(np.dot(e2, qvec)) * inv_det
    if t < t_min or t > t_max:
        return None
    return t


#: Column orders that line up a cross product's operands: component ``i``
#: of ``a x b`` is ``a[i+1] * b[i+2] - a[i+2] * b[i+1]`` (indices mod 3).
_NEXT = [1, 2, 0]
_LAST = [2, 0, 1]


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two ``(k, 3)`` arrays, each component
    one multiply-multiply-subtract in :func:`moeller_trumbore`'s order."""
    return a[:, _NEXT] * b[:, _LAST] - a[:, _LAST] * b[:, _NEXT]


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two ``(k, 3)`` arrays.

    A stacked ``(1, 3) @ (3, 1)`` matmul runs each row through the same
    BLAS ``ddot`` that ``np.dot`` calls on two 3-vectors, so every row has
    ``np.dot``'s bits; a plain multiply-add sum or ``einsum`` does not.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def moeller_trumbore_batch(
    origins: np.ndarray,
    directions: np.ndarray,
    t_min: np.ndarray,
    t_max: np.ndarray,
    a: np.ndarray,
    e1: np.ndarray,
    e2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`moeller_trumbore` over ``k`` (ray, triangle) pairs at once.

    Every argument has one row per pair: ``(k, 3)`` vectors and ``(k,)``
    intervals.  Returns ``(hit, t)``; where ``hit`` is True, ``t`` has the
    bits the one-pair kernel returns, and where it is False the one-pair
    kernel returns ``None``.  Each pair runs the one-pair kernel's
    operations in its order (cross products as separate multiplies and
    subtractions, dot products through :func:`_dot_rows`), and a pair the
    one-pair kernel rejects early is rejected by the same comparison here.
    Callers hoist ``np.errstate`` for the divisions and overflows of
    rejected pairs.
    """
    pvec = _cross_rows(directions, e2)
    det = _dot_rows(e1, pvec)
    inv_det = 1.0 / det
    tvec = origins - a
    u = _dot_rows(tvec, pvec) * inv_det
    qvec = _cross_rows(tvec, e1)
    v = _dot_rows(directions, qvec) * inv_det
    t = _dot_rows(e2, qvec) * inv_det
    # The one-pair kernel's rejection tests as written there, so a NaN
    # passes them here exactly as it passes its ``if``s.
    rejected = (
        (np.abs(det) < 1e-12)
        | (u < 0.0) | (u > 1.0)
        | (v < 0.0) | (u + v > 1.0)
        | (t < t_min) | (t > t_max)
    )
    return ~rejected, t


def ray_triangle_intersect(ray: Ray, tri: Triangle) -> Optional[float]:
    """Moeller-Trumbore test; returns hit parameter ``t`` or ``None``.

    Backface hits are reported (no culling), matching what an RT core's
    triangle unit does by default for closest-hit traversal.  Boxed-
    triangle convenience wrapper over :func:`moeller_trumbore`.
    """
    direction = ray.direction
    return moeller_trumbore(
        ray.origin,
        float(direction[0]),
        float(direction[1]),
        float(direction[2]),
        direction,
        ray.t_min,
        ray.t_max,
        tri.a,
        tri.b - tri.a,
        tri.c - tri.a,
    )
