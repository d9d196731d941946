"""The workload cache: how every experiment driver runs its cells.

A :class:`CachedWorkloadCache` names a scene suite and a workload
resolution, turns (scene, config) cells into content-addressed
:class:`~repro.runtime.job.SimulationJob` s, and resolves them with one
call, :meth:`~CachedWorkloadCache.run_jobs`, which hands them to
:func:`~repro.runtime.executor.run_jobs`:

- store hits are free and bit-identical (``store=None`` disables
  persistence);
- misses run in-process or on a process pool per the
  :class:`ExecutionPolicy`;
- ``metrics`` accumulates cache-hit/latency/throughput counters across
  every call, for reporting at the end of a sweep.

``simulate`` and ``sweep`` are thin loops over ``run_jobs``.  Phase one
(scene, BVH, trace) is configuration-independent and has one path in
:mod:`repro.runtime.job`: ``traced()``, serial sweeps, pool workers and
fallbacks all read a four-entry per-process memo, then the store's
phase-one artifact, under the same phase key.  With a store, each
scene is traced once per store: a later sweep, another worker or a
later process loads the traces instead of tracing them again.  Without
one, only the memo remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.results import SimulationResult
from repro.gpu.config import GPUConfig
from repro.runtime.executor import ExecutionPolicy, run_jobs
from repro.runtime.job import SimulationJob, _workload_traces
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.store import ResultStore
from repro.trace.events import RayTrace
from repro.workloads.lumibench import SCENE_NAMES
from repro.workloads.params import DEFAULT_PARAMS, WorkloadParams


@dataclass
class CachedWorkloadCache:
    """A scene suite plus the runtime that resolves its jobs.

    ``scene_names=None`` means the full Table II suite.  ``params``
    controls resolution and bounce budget; experiments pass a
    scaled-down copy for quick smoke runs.  The defaults, serial with no
    store, recompute every cell in-process; :func:`runtime_cache` builds
    the pooled, persistent variant the CLI uses.
    """

    params: WorkloadParams = field(default_factory=lambda: DEFAULT_PARAMS)
    scene_names: Optional[Sequence[str]] = None
    #: Timing backend every job requests (``"stepped"`` or
    #: ``"vector"``); backends are bit-identical by contract, so this
    #: only changes wall-clock, never results.
    backend: str = "stepped"
    store: Optional[ResultStore] = None
    policy: ExecutionPolicy = field(
        default_factory=lambda: ExecutionPolicy(workers=1)
    )
    metrics: RuntimeMetrics = field(default_factory=RuntimeMetrics)

    @property
    def names(self) -> List[str]:
        """Scene names this cache covers."""
        return list(self.scene_names) if self.scene_names else list(SCENE_NAMES)

    def job_for(
        self,
        name: str,
        config: GPUConfig,
        verify_pops: bool = False,
        strategy: str = "sms",
    ) -> SimulationJob:
        """The content-addressed job for one (scene, config) cell."""
        return SimulationJob.from_params(
            name,
            config,
            params=self.params,
            verify_pops=verify_pops,
            strategy=strategy,
            backend=self.backend,
        )

    def traced(self, name: str) -> List[RayTrace]:
        """One scene's phase-one traces, through the memo and the store."""
        return _workload_traces(self.job_for(name, GPUConfig()), self.store)[1]

    def run_jobs(self, jobs: Sequence) -> List[SimulationResult]:
        """Resolve ``jobs`` in order: store, then pool, then metrics."""
        report = run_jobs(jobs, store=self.store, policy=self.policy)
        self.metrics.merge(report.metrics)
        return report.results

    def simulate(
        self, name: str, config: GPUConfig, verify_pops: bool = False
    ) -> SimulationResult:
        """Time one scene under one configuration."""
        return self.run_jobs([self.job_for(name, config, verify_pops)])[0]

    def sweep(
        self, configs: Sequence[GPUConfig], verify_pops: bool = False
    ) -> Dict[str, Dict[str, SimulationResult]]:
        """Run every (scene, config) pair.

        Returns ``{scene_name: {config_label: result}}`` with config
        labels from :meth:`GPUConfig.describe` (made unique with an index
        suffix if two configs share a label).
        """
        from repro.experiments.common import _unique_labels

        labels = _unique_labels(configs)
        names = self.names
        flat = iter(self.run_jobs([
            self.job_for(name, config, verify_pops)
            for name in names
            for config in configs
        ]))
        return {
            name: {label: next(flat) for label in labels} for name in names
        }


def runtime_cache(
    params=None,
    scene_names=None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    cache_dir=None,
    progress: bool = False,
    backend: str = "stepped",
) -> CachedWorkloadCache:
    """Build a :class:`CachedWorkloadCache` from user-facing knobs.

    The one place a sweep's runtime is set; the CLI, ``run_all`` and
    ``run_experiment`` all go through it.  ``jobs`` is the worker count
    (``None`` auto-sizes, ``1`` forces serial), ``use_cache=False``
    drops the persistent store entirely, ``cache_dir`` overrides the
    store location (default ``~/.cache/repro-sms`` or
    ``$REPRO_CACHE_DIR``), ``progress`` draws a live stderr progress
    line, and ``backend`` selects the timing backend every job requests
    (``"stepped"`` or ``"vector"`` — bit-identical results, different
    wall-clock).
    """
    return CachedWorkloadCache(
        params=params or DEFAULT_PARAMS,
        scene_names=scene_names,
        backend=backend,
        store=ResultStore(cache_dir) if use_cache else None,
        policy=ExecutionPolicy(workers=jobs, progress=progress),
    )
