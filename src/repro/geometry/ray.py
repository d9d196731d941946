"""Rays.

A ray is a half-line ``origin + t * direction`` for ``t`` in
``[t_min, t_max]``.  Precomputed reciprocal directions make the slab
ray/AABB test branch-free; zero direction components map to ``+/-inf``
reciprocals, which the slab test handles correctly via IEEE semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GeometryError
from repro.geometry.vec import Vec3, length

#: Default near plane for rays (skips self-intersection at the origin).
T_MIN_DEFAULT = 1e-4
#: Default far plane for rays (effectively unbounded).
T_MAX_DEFAULT = 1e30


@dataclass
class Ray:
    """A parametric ray with a valid interval ``[t_min, t_max]``."""

    origin: Vec3
    direction: Vec3
    t_min: float = T_MIN_DEFAULT
    t_max: float = T_MAX_DEFAULT
    inv_direction: Vec3 = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=np.float64)
        self.direction = np.asarray(self.direction, dtype=np.float64)
        if length(self.direction) < 1e-300:
            raise GeometryError("ray direction must be non-zero")
        if self.t_min > self.t_max:
            raise GeometryError(
                f"ray interval is empty: t_min={self.t_min} > t_max={self.t_max}"
            )
        with np.errstate(divide="ignore", over="ignore"):
            self.inv_direction = np.where(
                self.direction != 0.0, 1.0 / self.direction, np.inf
            )

    def at(self, t: float) -> Vec3:
        """Point on the ray at parameter ``t``."""
        return self.origin + t * self.direction
