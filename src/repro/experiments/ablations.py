"""Studies beyond the paper's figures that no knob space can express.

Sweeps over ``GPUConfig`` knobs are declared spaces in
:mod:`repro.ablation.spaces` (``repro ablate run --space NAME``).  What
stays here varies something a knob cannot: the workload resolution,
the BVH width, the warp formation, or the traversal algorithm of
related work (restart trails, short stacks, packets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.presets import baseline_config, sms_config
from repro.experiments.common import geomean, normalized_ipc
from repro.runtime.cache import CachedWorkloadCache
from repro.trace.restart import restart_trail_trace
from repro.trace.path import _default_camera
from repro.workloads.params import WorkloadParams


@dataclass
class StacklessResult:
    """Visit overhead of restart-trail traversal per scene."""

    overhead: Dict[str, float]      # restart visits / DFS visits
    restarts_per_ray: Dict[str, float]


def stackless_comparison(
    cache: Optional[CachedWorkloadCache] = None, rays_per_scene: int = 128
) -> StacklessResult:
    """Node-visit overhead of stackless restart-trail traversal."""
    cache = cache or CachedWorkloadCache()
    overhead: Dict[str, float] = {}
    restarts: Dict[str, float] = {}
    from repro.bvh.api import build_bvh
    from repro.trace.tracer import Tracer
    from repro.workloads.lumibench import load_scene

    for name in cache.names:
        bvh = build_bvh(load_scene(name))
        camera = _default_camera(bvh, 16, 16)
        all_rays = [ray for _, ray in camera.rays()]
        stride = max(1, len(all_rays) // rays_per_scene)
        sampled = all_rays[::stride][:rays_per_scene]
        dfs_visits = 0
        restart_visits = 0
        restart_count = 0
        rays = len(sampled)
        tracer = Tracer(bvh)
        for ray in sampled:
            dfs_visits += tracer.trace(ray).step_count
            result = restart_trail_trace(bvh, ray)
            restart_visits += result.node_visits
            restart_count += result.restarts
        overhead[name] = restart_visits / dfs_visits if dfs_visits else 0.0
        restarts[name] = restart_count / rays if rays else 0.0
    return StacklessResult(overhead=overhead, restarts_per_ray=restarts)


@dataclass
class ShortStackStudyResult:
    """Restart-trail hybrid: overhead vs on-chip stack capacity."""

    visit_overhead: Dict[int, float]   # capacity -> visits vs DFS
    restarts_per_ray: Dict[int, float]


def short_stack_study(
    scene_names=("CRNVL", "PARTY", "SHIP"),
    capacities=(0, 2, 4, 8, 16),
    rays_per_scene: int = 96,
    resolution: int = 16,
) -> ShortStackStudyResult:
    """Laine's short-stack+restart scheme across stack capacities.

    Quantifies the paper's VIII-A remark that backing a short stack with
    more on-chip entries (exactly what the SMS SH stack provides) shrinks
    restart overhead: each added entry removes restart replays until, at
    the workload's pending-sibling depth, restarts vanish entirely.
    """
    from repro.bvh.api import build_bvh
    from repro.trace.restart import short_stack_restart_trace
    from repro.trace.tracer import Tracer
    from repro.workloads.lumibench import load_scene

    visits: Dict[int, int] = {c: 0 for c in capacities}
    restart_totals: Dict[int, int] = {c: 0 for c in capacities}
    dfs_visits = 0
    total_rays = 0
    for name in scene_names:
        scene = load_scene(name)
        bvh = build_bvh(scene)
        tracer = Tracer(bvh)
        camera = _default_camera(bvh, resolution, resolution)
        all_rays = [ray for _, ray in camera.rays()]
        stride = max(1, len(all_rays) // rays_per_scene)
        sampled = all_rays[::stride][:rays_per_scene]
        total_rays += len(sampled)
        for ray in sampled:
            dfs_visits += tracer.trace(ray).step_count
            for capacity in capacities:
                result = short_stack_restart_trace(
                    bvh, ray, stack_entries=capacity
                )
                visits[capacity] += result.node_visits
                restart_totals[capacity] += result.restarts
    return ShortStackStudyResult(
        visit_overhead={
            c: visits[c] / dfs_visits if dfs_visits else 0.0 for c in capacities
        },
        restarts_per_ray={
            c: restart_totals[c] / total_rays if total_rays else 0.0
            for c in capacities
        },
    )


@dataclass
class SizeConsistencyResult:
    """SMS speedup at multiple workload resolutions (paper VII-A claim)."""

    speedups: Dict[str, Dict[str, float]]  # resolution label -> scene -> ratio

    def spread(self) -> float:
        """Largest cross-resolution speedup difference over all scenes."""
        worst = 0.0
        scenes = next(iter(self.speedups.values())).keys()
        for scene in scenes:
            values = [self.speedups[label][scene] for label in self.speedups]
            worst = max(worst, max(values) - min(values))
        return worst


def size_consistency_study(
    scene_names=("CRNVL", "PARTY", "SHIP", "SPNZA"),
    resolutions=(16, 24, 32),
) -> SizeConsistencyResult:
    """Validate the paper's VII-A claim that trends hold across sizes.

    The paper evaluates complex scenes at reduced resolution, arguing
    "performance trends have been observed to remain consistent across
    varying workload sizes."  This study measures the SMS-vs-baseline
    speedup per scene at several resolutions and reports the spread.
    """
    speedups: Dict[str, Dict[str, float]] = {}
    sms = sms_config()
    for resolution in resolutions:
        cache = CachedWorkloadCache(
            params=WorkloadParams(
                width=resolution, height=resolution,
                complex_width=resolution, complex_height=resolution,
            ),
            scene_names=scene_names,
        )
        per_scene = normalized_ipc(
            cache.sweep([baseline_config(), sms]), "RB_8"
        )
        speedups[f"{resolution}x{resolution}"] = {
            name: ratios[sms.describe()] for name, ratios in per_scene.items()
        }
    return SizeConsistencyResult(speedups=speedups)


@dataclass
class WidthStudyResult:
    """Per BVH branching factor: depth statistics and SMS benefit."""

    avg_depth: Dict[int, float]
    max_depth: Dict[int, int]
    sms_gain: Dict[int, float]  # SMS IPC / baseline IPC at that width


def bvh_width_study(
    scene_names=("CRNVL", "PARTY", "SHIP"),
    widths=(2, 4, 6, 8),
    resolution: int = 16,
) -> WidthStudyResult:
    """How the wide-BVH branching factor drives stack pressure.

    The paper's Fig. 3 walkthrough uses BVH6 because wide nodes push up to
    ``k - 1`` siblings per visit; this sweep quantifies that: higher
    branching factors deepen the stack-demand distribution and therefore
    raise the benefit of the SMS secondary stack.
    """
    from repro.bvh.api import build_bvh
    from repro.core.api import time_traces
    from repro.trace.depth import depth_statistics
    from repro.trace.path import generate_workload
    from repro.workloads.lumibench import load_scene

    avg_depth: Dict[int, list] = {w: [] for w in widths}
    max_depth: Dict[int, int] = {w: 0 for w in widths}
    gains: Dict[int, list] = {w: [] for w in widths}
    for name in scene_names:
        scene = load_scene(name)
        for width in widths:
            bvh = build_bvh(scene, width=width)
            workload = generate_workload(
                bvh, width=resolution, height=resolution, max_bounces=2
            )
            stats = depth_statistics(workload.all_traces)
            avg_depth[width].append(stats.avg_depth)
            max_depth[width] = max(max_depth[width], stats.max_depth)
            base = time_traces(
                workload.all_traces, baseline_config(), scene_name=name
            )
            sms = time_traces(
                workload.all_traces, sms_config(), scene_name=name
            )
            gains[width].append(sms.ipc / base.ipc if base.ipc else 0.0)
    return WidthStudyResult(
        avg_depth={w: sum(v) / len(v) for w, v in avg_depth.items()},
        max_depth=max_depth,
        sms_gain={w: geomean(v) for w, v in gains.items()},
    )


@dataclass
class WarpFormationResult:
    """Linear vs tiled warp formation, per scene."""

    fetch_lines_linear: Dict[str, int]
    fetch_lines_tiled: Dict[str, int]
    ipc_gain: Dict[str, float]  # tiled IPC / linear IPC


def warp_formation_study(
    scene_names=("CRNVL", "LANDS", "SPNZA"), resolution: int = 24
) -> WarpFormationResult:
    """Does tile-major warp formation improve fetch coalescing?

    Real GPUs pack primary rays in screen tiles; this study reorders the
    primary wave into 8x4 tiles (one warp per tile) and measures the
    change in unique node-fetch lines and IPC under the default SMS
    configuration.
    """
    from repro.bvh.api import build_bvh
    from repro.core.api import time_traces
    from repro.trace.ordering import reorder_wave_tiled
    from repro.trace.path import generate_workload
    from repro.workloads.lumibench import load_scene

    fetch_linear: Dict[str, int] = {}
    fetch_tiled: Dict[str, int] = {}
    gains: Dict[str, float] = {}
    config = sms_config()
    for name in scene_names:
        scene = load_scene(name)
        bvh = build_bvh(scene)
        workload = generate_workload(
            bvh, width=resolution, height=resolution, max_bounces=2
        )
        linear_traces = workload.all_traces
        tiled_primary = reorder_wave_tiled(
            workload.waves[0], resolution, resolution
        )
        tiled_traces = tiled_primary + [
            t for wave in workload.waves[1:] for t in wave
        ]
        linear = time_traces(linear_traces, config, scene_name=name)
        tiled = time_traces(tiled_traces, config, scene_name=name)
        fetch_linear[name] = linear.counters.node_fetch_lines
        fetch_tiled[name] = tiled.counters.node_fetch_lines
        gains[name] = tiled.ipc / linear.ipc if linear.ipc else 0.0
    return WarpFormationResult(
        fetch_lines_linear=fetch_linear,
        fetch_lines_tiled=fetch_tiled,
        ipc_gain=gains,
    )


@dataclass
class PacketStudyResult:
    """Shared-stack packet traversal vs per-ray traversal, per wave kind."""

    stack_push_ratio: Dict[str, float]  # packet pushes / sum of solo pushes
    visit_ratio: Dict[str, float]       # packet visits / sum of solo visits


def packet_study(
    scene_name: str = "CRNVL", resolution: int = 16, group_size: int = 8
) -> PacketStudyResult:
    """Quantify the paper's VIII-B trade-off on coherent vs bounce rays.

    Groups consecutive rays of the primary wave (coherent) and of the
    first bounce wave (incoherent) into packets sharing one stack, and
    compares stack pushes and node visits against per-ray traversal.
    Expected shape: packets slash stack entries on coherent rays but lose
    their advantage — and inflate visits per ray — on incoherent ones.
    """
    from repro.bvh.api import build_bvh
    from repro.geometry.ray import Ray
    from repro.trace.packet import packet_trace
    from repro.trace.rng import DeterministicRng
    from repro.trace.tracer import Tracer
    from repro.workloads.lumibench import load_scene
    import numpy as np

    scene = load_scene(scene_name)
    bvh = build_bvh(scene)
    tracer = Tracer(bvh)
    camera = _default_camera(bvh, resolution, resolution)
    rng = DeterministicRng(7)

    primary = [ray for _, ray in camera.rays()]
    # Build an incoherent set: bounce rays from primary hit points.
    bounce = []
    for pixel, ray in enumerate(primary):
        solo = tracer.trace(ray)
        if not solo.hit:
            continue
        tri = scene.triangle(solo.hit_prim)
        normal = tri.normal()
        if float(np.dot(normal, ray.direction)) > 0.0:
            normal = -normal
        direction = rng.cosine_hemisphere(normal, pixel)
        bounce.append(
            Ray(origin=ray.at(solo.hit_t) + normal * 1e-4, direction=direction)
        )

    push_ratio: Dict[str, float] = {}
    visit_ratio: Dict[str, float] = {}
    for label, rays in (("primary", primary), ("bounce", bounce)):
        packet_pushes = packet_visits = 0
        solo_pushes = solo_visits = 0
        for start in range(0, len(rays) - group_size + 1, group_size):
            group = rays[start : start + group_size]
            packet = packet_trace(bvh, group)
            packet_pushes += packet.stack_pushes
            packet_visits += packet.node_visits
            for ray in group:
                trace = tracer.trace(ray)
                solo_pushes += sum(len(s.pushes) for s in trace.steps)
                solo_visits += trace.step_count
        push_ratio[label] = packet_pushes / solo_pushes if solo_pushes else 0.0
        visit_ratio[label] = packet_visits / solo_visits if solo_visits else 0.0
    return PacketStudyResult(stack_push_ratio=push_ratio, visit_ratio=visit_ratio)

