"""JSON wire format for jobs and results (HTTP API <-> client).

A submitted job travels as its resolved field dict (not the content
key): the server rebuilds the exact :class:`SimulationJob`, re-derives
the key itself, and therefore never trusts a client-supplied hash.
Results reuse :meth:`SimulationResult.to_dict` — the same payload the
persistent store holds.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict

from repro.core.presets import named_config
from repro.core.results import SimulationResult
from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import BACKENDS
from repro.runtime.job import SimulationJob
from repro.traversal.registry import resolve_strategy
from repro.workloads.lumibench import SCENE_NAMES

#: SimulationJob fields a submission may set (everything but the config).
_JOB_FIELDS = (
    "scene", "width", "height", "spp", "max_bounces", "seed",
    "verify_pops", "guard", "max_cycles", "strategy", "backend",
)


def job_to_wire(job: SimulationJob) -> Dict:
    """The submission payload for one job."""
    wire = {name: getattr(job, name) for name in _JOB_FIELDS}
    wire["config"] = asdict(job.config)
    return wire


def job_from_wire(wire: Dict) -> SimulationJob:
    """Rebuild a job from a submission payload.

    ``config`` may be a preset label (``"RB_8+SH_8+SK+RA"``) or a full
    field dict.  Unknown fields, an unknown scene, strategy or backend,
    and a width, height or spp below 1 all raise
    :class:`~repro.errors.ConfigError`, so a bad submission is a 400
    before any job runs, not a failure after the retry budget.
    """
    if not isinstance(wire, dict):
        raise ConfigError("submission body must be a JSON object")
    config_wire = wire.get("config", "RB_8+SH_8+SK+RA")
    if isinstance(config_wire, str):
        config = named_config(config_wire)
    elif isinstance(config_wire, dict):
        try:
            config = GPUConfig(**config_wire)
        except TypeError as error:
            raise ConfigError(f"bad config fields: {error}") from error
    else:
        raise ConfigError("config must be a preset label or a field dict")
    fields = {}
    for name in _JOB_FIELDS:
        if name in wire:
            fields[name] = wire[name]
    unknown = sorted(set(wire) - set(_JOB_FIELDS) - {"config"})
    if unknown:
        raise ConfigError(f"unknown job fields: {', '.join(unknown)}")
    if "scene" not in fields:
        raise ConfigError("submission needs a scene")
    scene = str(fields.pop("scene")).upper()
    if scene not in SCENE_NAMES:
        raise ConfigError(
            f"unknown scene {scene!r}; available: {', '.join(SCENE_NAMES)}"
        )
    resolve_strategy(fields.get("strategy", "sms"))
    backend = fields.get("backend", "stepped")
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; choose from {', '.join(BACKENDS)}"
        )
    sizes = {}
    for name, default in (("width", 24), ("height", 24), ("spp", 1)):
        try:
            sizes[name] = int(fields.pop(name, default))
        except (TypeError, ValueError) as error:
            raise ConfigError(f"bad job fields: {error}") from error
        if sizes[name] < 1:
            raise ConfigError(f"{name} must be >= 1")
    return SimulationJob(scene=scene, config=config, **sizes, **fields)


def result_to_wire(result: SimulationResult) -> Dict:
    return result.to_dict()


def result_from_wire(wire: Dict) -> SimulationResult:
    return SimulationResult.from_dict(wire)
