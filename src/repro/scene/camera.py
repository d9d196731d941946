"""Pinhole camera generating primary rays (paper Fig. 1, step 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import tan, radians
from typing import Iterator, Tuple

import numpy as np

from repro.errors import SceneError
from repro.geometry.ray import Ray
from repro.geometry.vec import Vec3, cross, normalize


@dataclass
class PinholeCamera:
    """A simple look-at pinhole camera.

    Rays are generated through pixel centers of a ``width x height`` image
    plane with the given vertical field of view.
    """

    position: Vec3
    look_at: Vec3
    up: Vec3 = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    vfov_degrees: float = 60.0
    width: int = 32
    height: int = 32

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64)
        self.look_at = np.asarray(self.look_at, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)
        if self.width <= 0 or self.height <= 0:
            raise SceneError("camera resolution must be positive")
        if not 0.0 < self.vfov_degrees < 180.0:
            raise SceneError("vertical field of view must be in (0, 180)")
        forward = normalize(self.look_at - self.position)
        self._forward = forward
        self._right = normalize(cross(forward, self.up))
        self._true_up = cross(self._right, forward)
        self._half_h = tan(radians(self.vfov_degrees) / 2.0)
        self._half_w = self._half_h * (self.width / self.height)

    @property
    def pixel_count(self) -> int:
        """Total number of pixels in the image plane."""
        return self.width * self.height

    def ray_for_pixel(self, px: int, py: int, jitter: Tuple[float, float] = (0.5, 0.5)) -> Ray:
        """Primary ray through pixel ``(px, py)``.

        ``jitter`` is the sub-pixel offset in ``[0, 1)^2``; 0.5 means the
        pixel center.  Rows are numbered top to bottom.
        """
        if not (0 <= px < self.width and 0 <= py < self.height):
            raise SceneError(f"pixel ({px}, {py}) outside {self.width}x{self.height}")
        direction = self.directions(
            np.array([px]), np.array([py]),
            np.array([jitter[0]]), np.array([jitter[1]]),
        )[0]
        return Ray(origin=self.position.copy(), direction=direction)

    def directions(
        self,
        px: np.ndarray,
        py: np.ndarray,
        jitter_x: np.ndarray,
        jitter_y: np.ndarray,
    ) -> np.ndarray:
        """Unit primary-ray directions, one ``(3,)`` row per pixel sample.

        ``px`` / ``py`` are pixel coordinates and ``jitter_x`` /
        ``jitter_y`` the sub-pixel offsets in ``[0, 1)``, as in
        :meth:`ray_for_pixel`.  Each row runs the scalar operations of
        :func:`~repro.geometry.vec.normalize` on the image-plane point, in
        their order, so a row has the bits of the one-ray computation.
        """
        u = ((px + jitter_x) / self.width) * 2.0 - 1.0
        v = 1.0 - ((py + jitter_y) / self.height) * 2.0
        point = (
            self._forward
            + (u * self._half_w)[:, None] * self._right
            + (v * self._half_h)[:, None] * self._true_up
        )
        x, y, z = point[:, 0], point[:, 1], point[:, 2]
        return point / np.sqrt(x * x + y * y + z * z)[:, None]

    def rays(self) -> Iterator[Tuple[int, Ray]]:
        """All primary rays in scanline order with their pixel index."""
        for py in range(self.height):
            for px in range(self.width):
                yield py * self.width + px, self.ray_for_pixel(px, py)
