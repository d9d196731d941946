"""Axis-aligned bounding boxes.

AABBs are the bounding volumes used by every BVH node (paper Fig. 1).  A box
is stored as two corner vectors ``lo`` and ``hi``.  An *empty* box has
``lo > hi`` in every axis and absorbs nothing when intersected, everything
when unioned — the standard identity element for bound accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.vec import Vec3, vec3

_INF = float("inf")


@dataclass
class AABB:
    """An axis-aligned box spanning ``[lo, hi]`` in each axis."""

    lo: Vec3 = field(default_factory=lambda: vec3(_INF, _INF, _INF))
    hi: Vec3 = field(default_factory=lambda: vec3(-_INF, -_INF, -_INF))

    @staticmethod
    def empty() -> "AABB":
        """The identity element for :func:`union`."""
        return AABB()

    @staticmethod
    def from_points(points: np.ndarray) -> "AABB":
        """Tight bound over an ``(n, 3)`` array of points."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if pts.shape[0] == 0:
            return AABB.empty()
        return AABB(lo=pts.min(axis=0), hi=pts.max(axis=0))

    def is_empty(self) -> bool:
        """True when the box contains no points at all."""
        return bool(np.any(self.lo > self.hi))

    def contains_point(self, point: Vec3) -> bool:
        """True when ``point`` lies inside or on the boundary."""
        return bool(np.all(point >= self.lo) and np.all(point <= self.hi))

    def contains_box(self, other: "AABB") -> bool:
        """True when ``other`` is fully inside this box (empty boxes fit)."""
        if other.is_empty():
            return True
        return bool(np.all(other.lo >= self.lo) and np.all(other.hi <= self.hi))

    def grown(self, point: Vec3) -> "AABB":
        """A new box extended to also cover ``point``."""
        return AABB(lo=np.minimum(self.lo, point), hi=np.maximum(self.hi, point))

    def centroid(self) -> Vec3:
        """Center point of the box (undefined for empty boxes)."""
        return 0.5 * (self.lo + self.hi)

    def extent(self) -> Vec3:
        """Per-axis side lengths; zero vector for empty boxes."""
        if self.is_empty():
            return vec3(0.0, 0.0, 0.0)
        return self.hi - self.lo

    def longest_axis(self) -> int:
        """Index (0/1/2) of the longest side."""
        return int(np.argmax(self.extent()))

    def overlaps(self, other: "AABB") -> bool:
        """True when the two boxes share at least one point."""
        if self.is_empty() or other.is_empty():
            return False
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))


def union(a: AABB, b: AABB) -> AABB:
    """Smallest box covering both ``a`` and ``b``."""
    return AABB(lo=np.minimum(a.lo, b.lo), hi=np.maximum(a.hi, b.hi))


def surface_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Surface areas of non-empty boxes given as ``(..., 3)`` corner arrays."""
    ext = hi - lo
    ex, ey, ez = ext[..., 0], ext[..., 1], ext[..., 2]
    return 2.0 * (ex * ey + ey * ez + ez * ex)


def surface_area(box: AABB) -> float:
    """Surface area of the box; 0 for empty boxes."""
    if box.is_empty():
        return 0.0
    return float(surface_areas(box.lo, box.hi))
