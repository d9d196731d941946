"""Intersection kernels: slab ray/AABB and Moeller-Trumbore ray/triangle.

These are the two tests the paper's RT unit performs in hardware (its
ray-box and ray-triangle operation units, Fig. 2).  The batch AABB variant
tests one ray against the ``k`` child bounds of a wide BVH node in a single
numpy call, which is what keeps the functional tracer fast enough for the
paper's full workload sweep.
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
    """Shared slab kernel: one ray against ``k`` boxes.

    ``origin`` and ``inv_direction`` are ``(3,)`` vectors, ``t_min`` and
    ``t_max`` scalars, and ``los`` / ``his`` the ``(k, 3)`` box corners.

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
