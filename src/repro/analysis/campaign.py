"""One-call measurement campaigns: sweep, summarize, export.

A :class:`Campaign` wraps the scene-by-configuration sweep the experiment
drivers use, but returns the raw :class:`SimulationResult` objects and
offers CSV/JSON/markdown export — the entry point for users running their
own studies rather than regenerating the paper's figures.

Campaigns execute through :mod:`repro.runtime`: the (scene x config)
matrix runs on a process pool sized by ``jobs`` and every cell is served
from the persistent result store when its content key matches a previous
run.  The simulation is deterministic, so parallel and cached runs are
bit-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.export import results_markdown, write_csv, write_json
from repro.core.presets import named_config
from repro.core.results import SimulationResult
from repro.experiments.common import WorkloadCache, geomean
from repro.gpu.config import GPUConfig
from repro.runtime.executor import ExecutionPolicy, run_jobs
from repro.runtime.job import SimulationJob
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.store import ResultStore
from repro.workloads.lumibench import SCENE_NAMES
from repro.workloads.params import DEFAULT_PARAMS, WorkloadParams


@dataclass
class CampaignResult:
    """All runs of one campaign plus summary helpers."""

    results: List[SimulationResult]
    baseline_label: str
    #: Executor counters for the run (``None`` on the legacy cache path).
    metrics: Optional[RuntimeMetrics] = None

    def normalized_means(self) -> Dict[str, float]:
        """Geomean normalized IPC per configuration label."""
        by_scene: Dict[str, Dict[str, SimulationResult]] = {}
        for result in self.results:
            by_scene.setdefault(result.scene_name, {})[result.label] = result
        ratios: Dict[str, List[float]] = {}
        for per_scene in by_scene.values():
            base = per_scene.get(self.baseline_label)
            if base is None or base.ipc == 0:
                continue
            for label, result in per_scene.items():
                ratios.setdefault(label, []).append(result.ipc / base.ipc)
        return {label: geomean(values) for label, values in ratios.items()}

    def to_csv(self, path) -> Path:
        """Export all runs as CSV."""
        return write_csv(self.results, path)

    def to_json(self, path) -> Path:
        """Export all runs as JSON."""
        return write_json(self.results, path)

    def to_markdown(self) -> str:
        """Normalized-IPC markdown table."""
        return results_markdown(self.results, self.baseline_label)


@dataclass
class Campaign:
    """A sweep specification: which scenes under which configurations.

    The runtime knobs mirror the CLI: ``jobs`` is the worker-process
    count (``None`` auto-sizes to the machine, ``1`` forces serial
    in-process execution), ``use_cache``/``cache_dir`` control the
    persistent result store, ``timeout``/``retries`` bound each job, and
    ``progress`` draws a live stderr progress line.
    """

    configs: Sequence = ("RB_8", "RB_8+SH_8+SK+RA", "RB_FULL")
    scenes: Optional[Sequence[str]] = None
    params: WorkloadParams = field(default_factory=lambda: DEFAULT_PARAMS)
    baseline_label: str = "RB_8"
    jobs: Optional[int] = None
    use_cache: bool = True
    cache_dir: Optional[Path] = None
    timeout: Optional[float] = None
    retries: int = 2
    progress: bool = False

    def _resolved_configs(self) -> List[GPUConfig]:
        return [
            config if isinstance(config, GPUConfig) else named_config(config)
            for config in self.configs
        ]

    def run(
        self,
        cache: Optional[WorkloadCache] = None,
        service=None,
    ) -> CampaignResult:
        """Execute every (scene, config) pair.

        Passing an explicit ``cache`` keeps the legacy serial path (the
        cache's pre-traced scenes are authoritative); otherwise the sweep
        goes through the runtime executor and result store.

        ``service`` routes the sweep to a running ``repro serve``
        instance instead: pass a
        :class:`~repro.service.client.ServiceClient` or a
        ``http://host:port`` URL.  The server resolves the sweep with
        the same executor, and the simulation is deterministic, so the
        service path aggregates bit-identically to local execution.
        """
        resolved = self._resolved_configs()
        if cache is not None:
            results = [
                cache.simulate(name, config)
                for name in cache.names
                for config in resolved
            ]
            return CampaignResult(
                results=results, baseline_label=self.baseline_label
            )
        names = list(self.scenes) if self.scenes else list(SCENE_NAMES)
        sweep = [
            SimulationJob.from_params(name, config, params=self.params)
            for name in names
            for config in resolved
        ]
        if service is not None:
            if isinstance(service, str):
                from repro.service.client import ServiceClient

                service = ServiceClient.from_url(service)
            return CampaignResult(
                results=service.run_jobs(sweep),
                baseline_label=self.baseline_label,
            )
        report = run_jobs(
            sweep,
            store=ResultStore(self.cache_dir) if self.use_cache else None,
            policy=ExecutionPolicy(
                workers=self.jobs,
                timeout=self.timeout,
                retries=self.retries,
                progress=self.progress,
            ),
        )
        return CampaignResult(
            results=report.results,
            baseline_label=self.baseline_label,
            metrics=report.metrics,
        )
