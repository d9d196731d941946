"""Run a knob space and assemble the ablation report.

:func:`run_space` is the one way to run a knob space.  One (run, scene)
cell is one content-addressed :class:`~repro.runtime.job.SimulationJob`
— the same job model every other sweep uses — so a space fans out
through a workload cache's ``run_jobs`` (process pool + persistent
store; repeated design points across spaces are store hits) or through
any other object with ``run_jobs(jobs)``.  The simulation is
deterministic, so every path (serial, pool, another ``run_jobs``)
produces bit-identical reports.

The report itself is pure content: knob space, matrix, per-run metrics,
importance ranking and Pareto frontier — no timestamps, no host state —
so ``report.json`` is byte-stable across runs and machines and safe to
pin in golden tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.results import SimulationResult
from repro.errors import AblationError
from repro.gpu.energy import estimate_energy
from repro.runtime.cache import CachedWorkloadCache
from repro.runtime.job import SimulationJob
from repro.workloads.params import DEFAULT_PARAMS, WorkloadParams
from repro.ablation.analysis import (
    KnobImportance,
    ParetoPoint,
    pareto_frontier,
    pareto_points,
    rank_importance,
    speedups_vs_reference,
    stack_sram_bytes,
)
from repro.ablation.matrix import RunMatrix, generate_matrix
from repro.ablation.space import KnobSpace

#: Bump when the report layout changes incompatibly.
REPORT_SCHEMA = 1

#: File name ``repro ablate run --out`` writes inside the run directory.
REPORT_FILENAME = "report.json"


@dataclass
class AblationReport:
    """Everything one ablation campaign measured and derived."""

    space: KnobSpace
    params: WorkloadParams
    guard: bool
    #: run ID -> {"label", "knobs", "sram_bytes", "per_scene": {...}}.
    runs: Dict[str, Dict]
    #: Combinations rejected by config validation: {"knobs", "reason"}.
    skipped: List[Dict]
    #: Ranked attribution (LOO descending).
    importance: List[KnobImportance]
    #: The non-dominated IPC-vs-SRAM set, cheapest first.
    pareto: List[ParetoPoint]
    #: Per-run geomean speedup over the reference corner.
    speedups: Dict[str, float] = field(default_factory=dict)
    #: Timing backend every cell requested (``"stepped"`` or
    #: ``"vector"``); results are bit-identical across backends, so the
    #: field is provenance, not a knob dimension.
    backend: str = "stepped"

    @property
    def run_ids(self) -> List[str]:
        """Run IDs in matrix (generation) order."""
        return list(self.runs)

    def importance_ranking(self) -> List[str]:
        """Knob names, most important (largest LOO delta) first."""
        return [imp.knob for imp in self.importance]

    def pareto_ids(self) -> List[str]:
        """Frontier run IDs, cheapest SRAM first."""
        return [point.run_id for point in self.pareto]

    def per_scene_ipc(self) -> Dict[str, Dict[str, float]]:
        """run ID -> scene -> IPC (the analysis layer's input shape)."""
        return {
            spec_id: {
                scene: self.runs[spec_id]["per_scene"][scene]["ipc"]
                for scene in sorted(self.runs[spec_id]["per_scene"])
            }
            for spec_id in self.runs
        }

    def to_dict(self) -> Dict:
        """Canonical JSON-serializable form (content only, no clocks).

        ``backend`` is only serialized when it differs from the default,
        so reports produced before the field existed (and every stepped
        campaign) keep their exact bytes.
        """
        payload = {
            "schema": REPORT_SCHEMA,
            "space": self.space.to_dict(),
            "params": asdict(self.params),
            "guard": self.guard,
            "runs": {spec_id: self.runs[spec_id]
                     for spec_id in sorted(self.runs)},
            "run_order": list(self.runs),
            "skipped": self.skipped,
            "speedups": {spec_id: self.speedups[spec_id]
                         for spec_id in sorted(self.speedups)},
            "importance": [imp.to_dict() for imp in self.importance],
            "pareto": [point.to_dict() for point in self.pareto],
        }
        if self.backend != "stepped":
            payload["backend"] = self.backend
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "AblationReport":
        """Rebuild a report from :meth:`to_dict` output."""
        if not isinstance(data, dict) or "space" not in data:
            raise AblationError(
                "not an ablation report (expected an object with a "
                "'space' key)"
            )
        schema = data.get("schema")
        if schema != REPORT_SCHEMA:
            raise AblationError(
                f"unsupported ablation report schema {schema!r} "
                f"(this build reads schema {REPORT_SCHEMA})"
            )
        space = KnobSpace.from_dict(data["space"])
        order = data.get("run_order") or sorted(data.get("runs", {}))
        runs_raw = data.get("runs", {})
        runs = {spec_id: runs_raw[spec_id] for spec_id in order}
        return cls(
            space=space,
            params=WorkloadParams(**data.get("params", {})),
            guard=bool(data.get("guard", False)),
            runs=runs,
            skipped=list(data.get("skipped", [])),
            importance=[
                KnobImportance(
                    knob=imp["knob"],
                    off_value=imp["off_value"],
                    on_value=imp["on_value"],
                    loo_delta=imp["loo_delta"],
                    oat_delta=imp["oat_delta"],
                )
                for imp in data.get("importance", [])
            ],
            pareto=[
                ParetoPoint(
                    run_id=point["run_id"],
                    label=point["label"],
                    sram_bytes=point["sram_bytes"],
                    speedup=point["speedup"],
                )
                for point in data.get("pareto", [])
            ],
            speedups=dict(data.get("speedups", {})),
            backend=data.get("backend", "stepped"),
        )


def matrix_jobs(
    matrix: RunMatrix,
    params: WorkloadParams = DEFAULT_PARAMS,
    guard: bool = False,
    backend: str = "stepped",
) -> List[SimulationJob]:
    """Every (scene, run) cell as a content-addressed job.

    Scene-major order, so a worker that draws several design points of
    one scene serves them from its per-process trace memo.
    """
    jobs: List[SimulationJob] = []
    for scene in matrix.space.scene_names():
        for run in matrix.runs:
            job = SimulationJob.from_params(
                scene, run.config, params=params, strategy=run.strategy,
                backend=backend,
            )
            if guard:
                job = replace(job, guard=True)
            jobs.append(job)
    return jobs


def _scene_cell(result: SimulationResult) -> Dict:
    """The per-(run, scene) metrics kept in the report."""
    counters = result.counters
    energy = estimate_energy(counters, num_sms=result.config.num_sms)
    return {
        "ipc": result.ipc,
        "cycles": result.cycles,
        "offchip_accesses": counters.offchip_accesses,
        "stack_global_ops": counters.stack_global_ops,
        "stack_shared_ops": counters.stack_shared_ops,
        "bank_conflict_delay_cycles": counters.bank_conflict_delay_cycles,
        "energy_uj": energy.total_nj / 1e3,
    }


def run_space(
    space: KnobSpace,
    params: WorkloadParams = DEFAULT_PARAMS,
    *,
    guard: bool = False,
    cache=None,
    service=None,
    backend: str = "stepped",
) -> AblationReport:
    """Expand ``space``, run every cell and derive importance + Pareto.

    ``cache`` is a :class:`~repro.runtime.cache.CachedWorkloadCache`:
    its policy sizes the worker pool and its store absorbs repeats.
    ``service`` is any object with ``run_jobs(jobs)`` that takes the
    cells instead and returns one result per job, in order.  With
    neither, cells run serially in-process.
    """
    matrix = generate_matrix(space)
    jobs = matrix_jobs(matrix, params=params, guard=guard, backend=backend)
    results = (service or cache or CachedWorkloadCache()).run_jobs(jobs)
    return _assemble(matrix, params, guard, results, backend=backend)


def _assemble(
    matrix: RunMatrix,
    params: WorkloadParams,
    guard: bool,
    results: List[SimulationResult],
    backend: str = "stepped",
) -> AblationReport:
    """Fold flat scene-major results into the derived report."""
    scenes = matrix.space.scene_names()
    expected = len(scenes) * len(matrix.runs)
    if len(results) != expected:
        raise AblationError(
            f"executor returned {len(results)} results for "
            f"{expected} cells"
        )
    runs: Dict[str, Dict] = {
        run.id: {
            "label": run.label,
            "knobs": {name: run.knobs[name] for name in sorted(run.knobs)},
            "sram_bytes": stack_sram_bytes(run.config),
            "per_scene": {},
        }
        for run in matrix.runs
    }
    flat = iter(results)
    for scene in scenes:
        for run in matrix.runs:
            runs[run.id]["per_scene"][scene] = _scene_cell(next(flat))
    per_scene_ipc = {
        run.id: {
            scene: runs[run.id]["per_scene"][scene]["ipc"]
            for scene in scenes
        }
        for run in matrix.runs
    }
    importance = rank_importance(matrix.space, per_scene_ipc)
    speedups = speedups_vs_reference(matrix.space, per_scene_ipc)
    frontier = pareto_frontier(pareto_points(matrix, speedups))
    return AblationReport(
        space=matrix.space,
        params=params,
        guard=guard,
        runs=runs,
        skipped=[
            {"knobs": {name: knobs[name] for name in sorted(knobs)},
             "reason": reason}
            for knobs, reason in matrix.skipped
        ],
        importance=importance,
        pareto=frontier,
        speedups=speedups,
        backend=backend,
    )


def write_report(report: AblationReport, out_dir) -> Path:
    """Persist ``report.json`` into a run directory (created if needed).

    The payload is canonical (sorted keys, fixed separators), so two
    identical campaigns write byte-identical files.
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / REPORT_FILENAME
    path.write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    )
    return path


def load_report(run_dir) -> AblationReport:
    """Load ``report.json`` from a run directory.

    Missing directory, missing file and malformed JSON all raise
    :class:`AblationError` naming the path — the CLI's structured
    exit-2 path.
    """
    directory = Path(run_dir)
    path = directory / REPORT_FILENAME
    if not directory.is_dir():
        raise AblationError(
            f"no such ablation run directory: {directory} "
            f"(expected one produced by 'repro ablate run --out')"
        )
    if not path.is_file():
        raise AblationError(
            f"no {REPORT_FILENAME} in {directory} — not an ablation run "
            f"directory (run 'repro ablate run --out {directory}' first)"
        )
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise AblationError(
            f"malformed ablation report {path}: {error}"
        ) from error
    return AblationReport.from_dict(data)
