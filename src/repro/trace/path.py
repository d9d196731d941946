"""Path-traced workload generation (paper section VII-A).

Generates the ray population of a path-traced frame: camera (primary)
rays, then per-bounce waves of shadow and bounce rays from the previous
wave's hit points.  Waves are kept separate because they are what a GPU
schedules: primary-ray warps are coherent, deeper waves increasingly
divergent — which is precisely the incoherence the paper's stack traffic
analysis depends on.  Generation runs wave by wave, but each ray is
traced on its own, when it is spawned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.bvh.wide import WideBVH
from repro.errors import ConfigError
from repro.geometry.ray import Ray
from repro.geometry.vec import normalize
from repro.scene.camera import PinholeCamera
from repro.trace.events import RayKind, RayTrace
from repro.trace.rng import DeterministicRng
from repro.trace.tracer import Tracer


@dataclass
class PathTracerWorkload:
    """All ray traces of one path-traced frame, grouped into waves.

    ``waves[0]`` holds primary rays in pixel order; ``waves[i]`` for
    ``i > 0`` alternates shadow and bounce rays spawned by earlier hits.
    ``all_traces`` flattens the waves in scheduling order.
    """

    scene_name: str
    width: int
    height: int
    spp: int
    max_bounces: int
    waves: List[List[RayTrace]] = field(default_factory=list)

    @property
    def all_traces(self) -> List[RayTrace]:
        """Every trace in wave order (the order warps are formed in)."""
        return [trace for wave in self.waves for trace in wave]

    @property
    def ray_count(self) -> int:
        """Total number of rays traced."""
        return sum(len(wave) for wave in self.waves)

    @property
    def total_steps(self) -> int:
        """Total node visits across all rays."""
        return sum(trace.step_count for wave in self.waves for trace in wave)


def _default_camera(bvh: WideBVH, width: int, height: int) -> PinholeCamera:
    """A camera framing the whole scene from a 3/4 view."""
    bounds = bvh.scene.bounds()
    center = bounds.centroid()
    extent = bounds.extent()
    radius = max(float(np.linalg.norm(extent)) / 2.0, 1e-3)
    position = center + np.array([0.8, 0.6, 1.4]) * radius * 1.8
    return PinholeCamera(
        position=position, look_at=center, width=width, height=height
    )


def generate_workload(
    bvh: WideBVH,
    width: int = 16,
    height: int = 16,
    spp: int = 1,
    max_bounces: int = 2,
    seed: int = 0,
    tracer_factory=None,
) -> PathTracerWorkload:
    """Path-trace a frame and return every ray's traversal trace.

    Args:
        bvh: laid-out wide BVH over the scene.
        width, height: image resolution (the paper uses 128x128 or 32x32;
            defaults here are small so full sweeps stay fast — the paper
            itself notes trends are consistent across workload sizes).
        spp: samples per pixel, at least 1.
        max_bounces: path depth; each bounce wave adds shadow+bounce rays.
        seed: workload RNG seed.
        tracer_factory: ``bvh -> tracer`` constructor; defaults to the
            reference :class:`~repro.trace.tracer.Tracer`.  Traversal
            strategies substitute their own tracer here (e.g. the
            escape-link tracer).  The ray *population* is
            tracer-independent as long as closest hits agree: bounce and
            shadow spawning uses only closest-hit results.

    Returns:
        A :class:`PathTracerWorkload` with per-wave traces.

    Raises:
        ConfigError: ``spp`` is below 1.
    """
    if spp < 1:
        raise ConfigError(f"spp must be at least 1, got {spp}")
    tracer = (tracer_factory or Tracer)(bvh)
    rng = DeterministicRng(seed)
    scene = bvh.scene
    camera = _default_camera(bvh, width, height)
    workload = PathTracerWorkload(
        scene_name=scene.name, width=width, height=height,
        spp=spp, max_bounces=max_bounces,
    )

    # Each ray is traced as it is spawned, and ray ids run in spawn order:
    # every primary sample first, then per bounce and per frontier entry
    # its shadow ray (unless the hit point is on the light) and its bounce
    # ray.
    next_ray_id = 0
    primary_wave: List[RayTrace] = []
    frontier = []  # (pixel, sample, ray, trace) closest hits to extend
    for sample in range(spp):
        for pixel in range(camera.pixel_count):
            px, py = pixel % camera.width, pixel // camera.width
            jitter = (
                rng.uniform(pixel, sample, 1),
                rng.uniform(pixel, sample, 2),
            ) if spp > 1 else (0.5, 0.5)
            ray = camera.ray_for_pixel(px, py, jitter=jitter)
            trace = tracer.trace(
                ray, ray_id=next_ray_id, pixel=pixel, kind=RayKind.PRIMARY
            )
            next_ray_id += 1
            primary_wave.append(trace)
            if trace.hit:
                frontier.append((pixel, sample, ray, trace))
    workload.waves.append(primary_wave)

    for bounce in range(max_bounces):
        if not frontier:
            break
        shadow_wave: List[RayTrace] = []
        bounce_wave: List[RayTrace] = []
        next_frontier = []
        for pixel, sample, ray, hit in frontier:
            hit_point = ray.at(hit.hit_t)
            normal = scene.triangle(hit.hit_prim).normal()
            # Face the normal toward the incoming ray.
            if float(np.dot(normal, ray.direction)) > 0.0:
                normal = -normal
            origin = hit_point + normal * 1e-4
            # Shadow ray toward the light (any-hit).
            to_light = scene.light_position - hit_point
            distance = float(np.linalg.norm(to_light))
            if distance > 1e-6:
                shadow_ray = Ray(
                    origin=origin, direction=normalize(to_light),
                    t_max=distance,
                )
                shadow_wave.append(tracer.trace(
                    shadow_ray, ray_id=next_ray_id, pixel=pixel,
                    kind=RayKind.SHADOW, any_hit=True,
                ))
                next_ray_id += 1
            # Bounce ray in a cosine-weighted random direction.
            direction = rng.cosine_hemisphere(normal, pixel, sample, bounce)
            bounce_ray = Ray(origin=origin, direction=direction)
            trace = tracer.trace(
                bounce_ray, ray_id=next_ray_id, pixel=pixel,
                kind=RayKind.BOUNCE,
            )
            next_ray_id += 1
            bounce_wave.append(trace)
            if trace.hit:
                next_frontier.append((pixel, sample, bounce_ray, trace))
        if shadow_wave:
            workload.waves.append(shadow_wave)
        if bounce_wave:
            workload.waves.append(bounce_wave)
        frontier = next_frontier

    return workload
