"""The benchmark's four workloads and the cell identity they share.

A workload is a closed batch of cells, one cell per (scene, config).
Each workload is driven through the same library entry points the CLI
uses: a figure driver or an ablation space on a
:class:`~repro.runtime.cache.CachedWorkloadCache`.  ``drive`` takes the
cache plus an optional ``service`` object with ``run_jobs(jobs)``; the
ablation engine sends its cells there when one is given, which is how
the traced run replays them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Dict, Optional, Tuple

from repro.ablation.engine import run_space
from repro.ablation.spaces import named_space
from repro.core.presets import named_config
from repro.experiments import fig8_sh_configs, fig13_sms_ipc
from repro.gpu.config import GPUConfig
from repro.gpu.counters import Counters
from repro.runtime.job import SimulationJob
from repro.workloads.params import DEFAULT_PARAMS, WorkloadParams

#: Every integer ``Counters`` field: what the output checks compare.
COUNTER_FIELDS = tuple(spec.name for spec in fields(Counters))

#: Scenes a ``--smoke`` run uses in place of each workload's own.
SMOKE_SCENES = ("SHIP", "CRNVL")


def cell_id(job: SimulationJob) -> str:
    """Stable name of one cell, independent of the timing backend.

    The figure label alone is not unique (every ``SH_0`` variant reads
    ``RB_n``), so a digest of the full config is appended.
    """
    blob = json.dumps(asdict(job.config), sort_keys=True).encode()
    digest = hashlib.sha256(blob).hexdigest()[:8]
    return f"{job.scene}/{job.config.describe()}/{digest}"


def job_from_spec(spec: Dict) -> SimulationJob:
    """Rebuild a job from :meth:`SimulationJob.spec` output."""
    values = {key: value for key, value in spec.items() if key != "salt"}
    values["config"] = GPUConfig(**spec["config"])
    return SimulationJob(**values)


def counters_of(result) -> Dict[str, int]:
    """The integer counters of one result, by field name."""
    return {name: getattr(result.counters, name) for name in COUNTER_FIELDS}


def _fig13(cache, service=None):
    return fig13_sms_ipc.run(cache)


def _fig8(cache, service=None):
    return fig8_sh_configs.run(cache)


def _pareto(cache, service=None):
    space = replace(named_space("sram_pareto"), scenes=tuple(cache.names))
    return run_space(space, params=cache.params, cache=cache,
                     service=service, backend=cache.backend)


def _fullscale(cache, service=None):
    return cache.sweep([named_config("RB_8"), named_config("RB_8+SH_8+SK+RA")])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what it runs and on what."""

    name: str
    drive: Callable
    scenes: Optional[Tuple[str, ...]] = None
    params: WorkloadParams = DEFAULT_PARAMS
    backend: str = "stepped"
    #: Worker processes; 1 runs the cells serially in the repeat's process.
    jobs: int = 2
    #: ``REPRO_BENCH_SCALE`` for this workload (None leaves it unset).
    scale: Optional[str] = None
    #: Workload whose cells are run into the store before each repeat.
    primed_by: Optional[str] = None
    #: The figure driver's paper values, for ``paper_gap_pp``.
    paper: Optional[Dict[str, float]] = None

    def sized(self, seed: int, smoke: bool) -> "Workload":
        """This workload at ``seed``, shrunk for tests when ``smoke``."""
        params = replace(self.params, seed=seed)
        if not smoke:
            return replace(self, params=params)
        scenes = SMOKE_SCENES[:1] if self.scenes else SMOKE_SCENES
        return replace(self, params=params.scaled(0.25), scenes=scenes)


#: The reason for each workload is in BENCHMARK.json and bench/README.md.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in [
        # Every layer, from an empty store; workers rebuild phase one.
        Workload("fig13-cold", _fig13, paper=fig13_sms_ipc.PAPER_MEANS),
        # 48 store hits beside 32 misses that re-trace all 16 scenes.
        Workload("fig8-warm-store", _fig8, primed_by="fig13-cold",
                 paper=fig8_sh_configs.PAPER),
        # Vector plan building dominates; BVH build is negligible.
        Workload("pareto-vector", _pareto, scenes=("CRNVL", "PARTY", "SHIP"),
                 backend="vector"),
        # BVH build of a Table II-size scene dominates; timing is ~3%.
        Workload("fullscale-crnvl", _fullscale, scenes=("CRNVL",),
                 params=WorkloadParams(width=24, height=24, spp=1,
                                       max_bounces=2),
                 jobs=1, scale="1.0"),
    ]
}
