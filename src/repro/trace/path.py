"""Path-traced workload generation (paper section VII-A).

Generates the ray population of a path-traced frame: camera (primary)
rays, then per-bounce waves of shadow and bounce rays from the previous
wave's hit points.  Waves are kept separate because they are what a GPU
schedules: primary-ray warps are coherent, deeper waves increasingly
divergent — which is precisely the incoherence the paper's stack traffic
analysis depends on.  Generation runs wave by wave, and each wave is one
tracer call: the primary wave, whose camera rays are built as arrays,
then per bounce the shadow and bounce rays together.  A ray's trace does
not depend on the batch it is traced in, so ray ids and wave order are
all that batching has to keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.bvh.wide import WideBVH
from repro.errors import ConfigError
from repro.geometry.ray import T_MAX_DEFAULT, T_MIN_DEFAULT
from repro.geometry.vec import normalize
from repro.scene.camera import PinholeCamera
from repro.trace.events import RayKind, RayTrace
from repro.trace.rng import DeterministicRng
from repro.trace.tracer import RayBatch, Tracer


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
        max_bounces: path depth, at least 0; each bounce wave adds
            shadow+bounce rays.
        seed: workload RNG seed.
        tracer_factory: ``bvh -> tracer`` constructor; defaults to the
            reference :class:`~repro.trace.tracer.Tracer`.  Traversal
            strategies substitute their own tracer here (e.g. the
            escape-link tracer); it traces each wave through
            ``trace_batch``.  The ray *population* is
            tracer-independent as long as closest hits agree: bounce and
            shadow spawning uses only closest-hit results.

    Returns:
        A :class:`PathTracerWorkload` with per-wave traces.

    Raises:
        ConfigError: ``spp`` is below 1 or ``max_bounces`` is negative.
    """
    if spp < 1:
        raise ConfigError(f"spp must be at least 1, got {spp}")
    if max_bounces < 0:
        raise ConfigError(f"max_bounces must be at least 0, got {max_bounces}")
    tracer = (tracer_factory or Tracer)(bvh)
    rng = DeterministicRng(seed)
    scene = bvh.scene
    camera = _default_camera(bvh, width, height)
    workload = PathTracerWorkload(
        scene_name=scene.name, width=width, height=height,
        spp=spp, max_bounces=max_bounces,
    )

    # Ray ids run in spawn order: every primary sample first, then per
    # bounce and per frontier entry its shadow ray (unless the hit point
    # is on the light) and its bounce ray.  Each wave, and each bounce's
    # shadow and bounce rays together, is one tracer call.
    pixel_count = camera.pixel_count
    pixels = np.tile(np.arange(pixel_count), spp)
    if spp > 1:
        jitter = np.array([
            (rng.uniform(pixel, sample, 1), rng.uniform(pixel, sample, 2))
            for sample in range(spp)
            for pixel in range(pixel_count)
        ])
    else:
        jitter = np.full((len(pixels), 2), 0.5)
    directions = camera.directions(
        pixels % camera.width, pixels // camera.width, jitter[:, 0], jitter[:, 1]
    )
    count = len(pixels)
    primary_wave = tracer.trace_batch(RayBatch(
        origins=np.broadcast_to(camera.position, (count, 3)),
        directions=directions,
        t_min=np.full(count, T_MIN_DEFAULT),
        t_max=np.full(count, T_MAX_DEFAULT),
        any_hit=np.zeros(count, dtype=bool),
        ray_ids=range(count),
        pixels=pixels.tolist(),
        kinds=[RayKind.PRIMARY] * count,
    ))
    next_ray_id = count
    workload.waves.append(primary_wave)
    # (pixel, sample, ray origin, ray direction, trace) closest hits to extend
    frontier = [
        (pixel, index // pixel_count, camera.position, directions[index], trace)
        for index, (pixel, trace) in enumerate(zip(pixels.tolist(), primary_wave))
        if trace.hit
    ]

    for bounce in range(max_bounces):
        if not frontier:
            break
        # (pixel, sample, origin, direction, t_max, any-hit) per new ray
        spawned = []
        for pixel, sample, ray_origin, ray_direction, hit in frontier:
            hit_point = ray_origin + hit.hit_t * ray_direction
            normal = scene.triangle(hit.hit_prim).normal()
            # Face the normal toward the incoming ray.
            if float(np.dot(normal, ray_direction)) > 0.0:
                normal = -normal
            origin = hit_point + normal * 1e-4
            # Shadow ray toward the light (any-hit).
            to_light = scene.light_position - hit_point
            distance = float(np.linalg.norm(to_light))
            if distance > 1e-6:
                spawned.append(
                    (pixel, sample, origin, normalize(to_light), distance, True)
                )
            # Bounce ray in a cosine-weighted random direction.
            direction = rng.cosine_hemisphere(normal, pixel, sample, bounce)
            spawned.append((pixel, sample, origin, direction, T_MAX_DEFAULT, False))
        ray_pixels, _, origins, ray_directions, t_max, shadow = zip(*spawned)
        count = len(spawned)
        traces = tracer.trace_batch(RayBatch(
            origins=np.array(origins),
            directions=np.array(ray_directions),
            t_min=np.full(count, T_MIN_DEFAULT),
            t_max=np.array(t_max),
            any_hit=np.array(shadow),
            ray_ids=range(next_ray_id, next_ray_id + count),
            pixels=ray_pixels,
            kinds=[RayKind.SHADOW if s else RayKind.BOUNCE for s in shadow],
        ))
        next_ray_id += count
        shadow_wave = [trace for trace, s in zip(traces, shadow) if s]
        bounce_wave = [trace for trace, s in zip(traces, shadow) if not s]
        if shadow_wave:
            workload.waves.append(shadow_wave)
        if bounce_wave:
            workload.waves.append(bounce_wave)
        frontier = [
            (pixel, sample, origin, direction, trace)
            for (pixel, sample, origin, direction, _, s), trace in zip(spawned, traces)
            if not s and trace.hit
        ]

    return workload
