"""Serial in-process replay of a workload's cells, optionally traced.

:class:`Replayer` resolves each cell as the executor's serial path and
``SimulationJob.run`` do (key, store lookup, phase one once per scene,
timing, result assembly, store write), but as separate public calls, so
a :class:`~spans.Tracer` can time each layer from outside.  It serves
as the ``service`` of the ablation engine, and :class:`ReplayCache`
routes the figure drivers' sweeps through it.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.bvh.api import build_bvh
from repro.core.results import SimulationResult
from repro.experiments.common import _unique_labels
from repro.gpu.simulator import GPUSimulator
from repro.gpu.vector.plan import (
    VectorUnsupported,
    vector_unsupported_reason,
    warp_plan,
)
from repro.gpu.warp import pack_warps
from repro.runtime.cache import CachedWorkloadCache
from repro.runtime.store import ResultStore
from repro.trace.depth import depth_statistics
from repro.trace.events import total_steps
from repro.traversal.registry import resolve_strategy
from repro.workloads.lumibench import bench_scale, load_scene

from workloads import Workload, cell_id, counters_of

#: Traced scenes kept at once; the library's per-process memo keeps 4.
PHASE_ONE_CAPACITY = 4


class Replayer:
    """Runs jobs one by one in this process, recording each cell.

    ``backend`` overrides every job's timing backend (the stepped
    oracle for pins and cross-checks).  ``stats`` counts the work each
    layer did, under the per-layer metric names.
    """

    def __init__(self, store: Optional[ResultStore] = None, tracer=None,
                 backend: Optional[str] = None) -> None:
        self.store = store
        self.tracer = tracer
        self.backend = backend
        self.cells: Dict[str, Dict[str, int]] = {}
        self.stats: Counter = Counter()
        self._phase_one: "OrderedDict[tuple, tuple]" = OrderedDict()

    def _span(self, name: str, cell: Optional[str] = None):
        return self.tracer.span(name, cell) if self.tracer else nullcontext()

    def run_jobs(self, jobs) -> List[SimulationResult]:
        """Resolve every job in order (the ablation engine's service API)."""
        results = []
        for job in jobs:
            if self.backend:
                job = replace(job, backend=self.backend)
            cell = cell_id(job)
            with self._span("cell", cell):
                result = self._resolve(job)
            self.cells[cell] = counters_of(result)
            results.append(result)
        return results

    def _resolve(self, job) -> SimulationResult:
        with self._span("runtime.key"):
            key = job.key()
        if self.store is not None:
            with self._span("store.get"):
                hit = self.store.get(key)
            if hit is not None:
                self.stats["store.hits"] += 1
                return hit
            self.stats["store.misses"] += 1
        scene_name, traces = self._phase_one_for(job)
        simulator = GPUSimulator(
            config=job.config, verify_pops=job.verify_pops,
            strategy=job.strategy, backend=job.backend,
        )
        if job.backend == "vector":
            with self._span("gpu.vector"):
                self._plan(simulator, traces)
        with self._span("gpu.run_traces"):
            output = simulator.run_traces(traces)
        if output.backend != job.backend:
            self.stats["vector.fallbacks"] += 1
        self.stats["gpu.sim_cycles"] += output.counters.cycles
        self.stats["gpu.warp_steps"] += output.counters.warp_steps
        with self._span("core.result"):
            result = SimulationResult(
                scene_name=scene_name,
                config=simulator.config,
                counters=output.counters,
                depth_stats=depth_statistics(traces),
                ray_count=len(traces),
                backend=output.backend,
            )
        if self.store is not None:
            with self._span("store.put"):
                self.store.put(key, result, spec=job.spec())
        return result

    def _plan(self, simulator: GPUSimulator, traces) -> None:
        """Build the vector plans ``run_traces`` will then find cached."""
        config = simulator.config
        if vector_unsupported_reason(config, simulator.guard) is not None:
            return
        try:
            for warp in pack_warps(traces, warp_size=config.warp_size):
                warp_plan(warp, config, simulator.strategy)
                self.stats["vector.plans"] += 1
        except VectorUnsupported:
            pass

    def _phase_one_for(self, job) -> tuple:
        """Scene, BVH and traces for ``job``, once per scene."""
        strategy = resolve_strategy(job.strategy)
        memo_key = (
            job.scene, job.width, job.height, job.spp, job.max_bounces,
            job.seed, strategy.trace_key(), bench_scale(),
        )
        entry = self._phase_one.get(memo_key)
        if entry is not None:
            self._phase_one.move_to_end(memo_key)
            return entry
        with self._span("workloads.load_scene"):
            scene = load_scene(job.scene)
        with self._span("bvh.build_bvh"):
            bvh = build_bvh(scene)
        with self._span("trace.build_workload"):
            workload = strategy.build_workload(
                bvh, width=job.width, height=job.height, spp=job.spp,
                max_bounces=job.max_bounces, seed=job.seed,
            )
            traces = workload.all_traces
        self.stats["workloads.triangles"] += scene.triangle_count
        self.stats["bvh.nodes"] += bvh.node_count
        self.stats["trace.rays"] += len(traces)
        self.stats["trace.steps"] += total_steps(traces)
        entry = (scene.name, traces)
        # Only the traces outlive phase one, as in the library's memo.
        # Freeing a full-scale tree takes ~0.2 s, charged to the BVH layer.
        with self._span("bvh.release"):
            del scene, bvh, workload
        self._phase_one[memo_key] = entry
        while len(self._phase_one) > PHASE_ONE_CAPACITY:
            self._phase_one.popitem(last=False)
        return entry


@dataclass
class ReplayCache(CachedWorkloadCache):
    """A runtime cache whose sweeps run through a :class:`Replayer`."""

    replayer: Optional[Replayer] = None

    def sweep(self, configs, verify_pops: bool = False):
        labels = _unique_labels(configs)
        jobs = [self.job_for(name, config, verify_pops)
                for name in self.names for config in configs]
        flat = iter(self.replayer.run_jobs(jobs))
        return {name: {label: next(flat) for label in labels}
                for name in self.names}


def replay(workload: Workload, replayer: Replayer):
    """Drive ``workload`` serially through ``replayer``; returns its result."""
    cache = ReplayCache(
        params=workload.params,
        scene_names=workload.scenes,
        backend=workload.backend,
        store=replayer.store,
        replayer=replayer,
    )
    return workload.drive(cache, service=replayer)
