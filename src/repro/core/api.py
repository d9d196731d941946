"""High-level entry points: trace a scene, time the traces, or both.

The two-phase split is exposed deliberately: ``trace_scene`` is expensive
(path tracing) but configuration-independent, so experiments trace each
scene once and call ``time_traces`` for every stack/cache configuration.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bvh.api import build_bvh
from repro.bvh.wide import WideBVH
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import GPUSimulator
from repro.core.results import SimulationResult
from repro.scene.scene import Scene
from repro.trace.depth import depth_statistics
from repro.trace.events import RayTrace
from repro.trace.path import PathTracerWorkload, generate_workload


def trace_scene(
    scene: Scene,
    width: int = 16,
    height: int = 16,
    spp: int = 1,
    max_bounces: int = 2,
    seed: int = 0,
    bvh: Optional[WideBVH] = None,
    bvh_width: int = 6,
) -> PathTracerWorkload:
    """Phase one: path-trace ``scene`` and return the traversal traces."""
    if bvh is None:
        bvh = build_bvh(scene, width=bvh_width)
    return generate_workload(
        bvh, width=width, height=height, spp=spp, max_bounces=max_bounces, seed=seed
    )


def time_traces(
    traces: Sequence[RayTrace],
    config: Optional[GPUConfig] = None,
    scene_name: str = "",
    verify_pops: bool = True,
    guard=None,
    strategy=None,
    backend: str = "stepped",
) -> SimulationResult:
    """Phase two: replay traces through the timing model.

    ``guard`` (a :class:`~repro.guard.config.GuardConfig`) enables the
    simulation integrity layer for this run.  ``strategy`` selects the
    traversal strategy (:mod:`repro.traversal`); the traces must have
    been generated by the same strategy's phase one.
    ``backend`` selects the timing core (``"stepped"`` or ``"vector"``,
    bit-identical outputs); the result records which one actually ran,
    since a ``"vector"`` request can fall back to stepped (see
    :mod:`repro.gpu.simulator`).
    """
    simulator = GPUSimulator(
        config=config, verify_pops=verify_pops, guard=guard,
        strategy=strategy, backend=backend,
    )
    output = simulator.run_traces(traces)
    return SimulationResult(
        scene_name=scene_name,
        config=simulator.config,
        counters=output.counters,
        depth_stats=depth_statistics(traces),
        ray_count=len(traces),
        backend=output.backend,
    )


def simulate(
    scene: Scene,
    config: Optional[GPUConfig] = None,
    width: int = 16,
    height: int = 16,
    spp: int = 1,
    max_bounces: int = 2,
    seed: int = 0,
) -> SimulationResult:
    """Trace and time ``scene`` under ``config`` in one call."""
    workload = trace_scene(
        scene, width=width, height=height, spp=spp, max_bounces=max_bounces, seed=seed
    )
    return time_traces(workload.all_traces, config=config, scene_name=scene.name)
