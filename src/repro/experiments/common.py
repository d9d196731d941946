"""Shared experiment plumbing.

The expensive phase (path tracing each scene) is configuration-independent,
so a :class:`WorkloadCache` traces each scene once and every experiment
reuses the traces across all timing configurations — the same split the
library API exposes (``trace_scene`` / ``time_traces``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.bvh.api import build_bvh
from repro.bvh.stats import BVHStats, compute_stats
from repro.bvh.wide import WideBVH
from repro.core.api import time_traces
from repro.core.results import SimulationResult
from repro.gpu.config import GPUConfig
from repro.scene.scene import Scene
from repro.trace.events import RayTrace
from repro.trace.path import generate_workload
from repro.workloads.lumibench import SCENE_NAMES, load_scene
from repro.workloads.params import DEFAULT_PARAMS, WorkloadParams


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional average for normalized IPC)."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


@dataclass
class TracedScene:
    """One scene's cached functional-trace results."""

    scene: Scene
    bvh: WideBVH
    traces: List[RayTrace]
    bvh_stats: BVHStats


@dataclass
class WorkloadCache:
    """Traces scenes once; hands the traces to every timing config.

    ``scene_names=None`` means the full Table II suite.  ``params``
    controls resolution; experiments pass a scaled-down copy for quick
    smoke runs.

    The in-memory layer is LRU-bounded: ``max_traced`` caps how many
    traced scenes stay resident (``None`` keeps all — the historical
    behavior, right for one-shot sweeps).  Long-running processes
    (notebook sessions, say) set a bound so memory stays flat;
    evictions are counted in ``evictions`` and surfaced through
    :class:`~repro.runtime.metrics.RuntimeMetrics`.
    """

    params: WorkloadParams = field(default_factory=lambda: DEFAULT_PARAMS)
    scene_names: Optional[Sequence[str]] = None
    max_bounces: Optional[int] = None
    #: LRU capacity of the traced-scene cache (``None`` = unbounded).
    max_traced: Optional[int] = None
    #: Timing backend every simulation in this cache requests
    #: (``"stepped"`` or ``"vector"``); backends are bit-identical by
    #: contract, so this only changes wall-clock, never results.
    backend: str = "stepped"
    #: Traced scenes evicted by the LRU bound since construction.
    evictions: int = 0
    _cache: "OrderedDict[str, TracedScene]" = field(
        default_factory=OrderedDict
    )

    @property
    def names(self) -> List[str]:
        """Scene names this cache covers."""
        return list(self.scene_names) if self.scene_names else list(SCENE_NAMES)

    def traced(self, name: str) -> TracedScene:
        """Trace (or fetch cached traces for) one scene."""
        key = name.upper()
        if key in self._cache:
            self._cache.move_to_end(key)
        else:
            scene = load_scene(key)
            bvh = build_bvh(scene)
            width, height, spp = self.params.for_scene(key)
            bounces = (
                self.max_bounces
                if self.max_bounces is not None
                else self.params.max_bounces
            )
            workload = generate_workload(
                bvh,
                width=width,
                height=height,
                spp=spp,
                max_bounces=bounces,
                seed=self.params.seed,
            )
            self._cache[key] = TracedScene(
                scene=scene,
                bvh=bvh,
                traces=workload.all_traces,
                bvh_stats=compute_stats(bvh),
            )
            if self.max_traced is not None:
                while len(self._cache) > max(1, self.max_traced):
                    self._cache.popitem(last=False)
                    self.evictions += 1
                    self._on_evict()
        return self._cache[key]

    def _on_evict(self) -> None:
        """Hook for subclasses that meter evictions (runtime cache)."""

    def simulate(
        self, name: str, config: GPUConfig, verify_pops: bool = False
    ) -> SimulationResult:
        """Time one scene under one configuration."""
        traced = self.traced(name)
        return time_traces(
            traced.traces,
            config=config,
            scene_name=traced.scene.name,
            verify_pops=verify_pops,
            backend=self.backend,
        )

    def sweep(
        self, configs: Sequence[GPUConfig], verify_pops: bool = False
    ) -> Dict[str, Dict[str, SimulationResult]]:
        """Run every (scene, config) pair.

        Returns ``{scene_name: {config_label: result}}`` with config
        labels from :meth:`GPUConfig.describe` (made unique with an index
        suffix if two configs share a label).
        """
        results: Dict[str, Dict[str, SimulationResult]] = {}
        labels = _unique_labels(configs)
        for name in self.names:
            per_scene: Dict[str, SimulationResult] = {}
            for label, config in zip(labels, configs):
                per_scene[label] = self.simulate(name, config, verify_pops)
            results[name] = per_scene
        return results


def _unique_labels(configs: Sequence[GPUConfig]) -> List[str]:
    labels: List[str] = []
    for config in configs:
        label = config.describe()
        if label in labels:
            label = f"{label}#{len(labels)}"
        labels.append(label)
    return labels


def normalized_ipc(
    results: Dict[str, Dict[str, SimulationResult]], baseline_label: str
) -> Dict[str, Dict[str, float]]:
    """Per-scene IPC normalized to ``baseline_label`` (paper convention)."""
    normalized: Dict[str, Dict[str, float]] = {}
    for scene, per_scene in results.items():
        base = per_scene[baseline_label].ipc
        normalized[scene] = {
            label: (result.ipc / base if base else 0.0)
            for label, result in per_scene.items()
        }
    return normalized


def mean_row(per_scene: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Geometric-mean row across scenes for each config label."""
    if not per_scene:
        return {}
    labels = next(iter(per_scene.values())).keys()
    return {
        label: geomean(per_scene[scene][label] for scene in per_scene)
        for label in labels
    }
