"""Parallel campaign execution engine with a persistent result store.

Every figure and table in the reproduction is a (scene x configuration)
sweep, and each cell of that sweep is a *pure* computation: trace the
scene deterministically, replay the traces through the timing model.
This package turns that purity into throughput:

- :mod:`repro.runtime.job` — one simulation as a hashable, picklable
  spec with a deterministic content-address key;
- :mod:`repro.runtime.store` — a JSON-per-key on-disk result store so
  repeated sweeps load instead of re-simulating, which also keeps each
  scene's phase one (its traces) so it is traced once per store;
- :mod:`repro.runtime.executor` — a process-pool executor with per-job
  timeouts, bounded retry with backoff, and graceful degradation to
  serial in-process execution when workers fail;
- :mod:`repro.runtime.metrics` — queued/running/done/failed/cache-hit
  counters, per-job latency and throughput, plus a live progress line;
- :mod:`repro.runtime.cache` — the workload cache every experiment
  driver runs on: one ``run_jobs(jobs)`` call resolves a sweep through
  the store and the executor.

Because the simulation is deterministic, a parallel cached sweep is
bit-identical to a serial one.
"""

from repro.runtime.cache import CachedWorkloadCache, runtime_cache
from repro.runtime.executor import ExecutionPolicy, RunReport, run_jobs
from repro.runtime.job import CACHE_SCHEMA_VERSION, SimulationJob, cache_salt
from repro.runtime.metrics import ProgressReporter, RuntimeMetrics
from repro.runtime.store import DEFAULT_CACHE_DIR, ResultStore

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CachedWorkloadCache",
    "DEFAULT_CACHE_DIR",
    "ExecutionPolicy",
    "ProgressReporter",
    "ResultStore",
    "RunReport",
    "RuntimeMetrics",
    "SimulationJob",
    "cache_salt",
    "run_jobs",
    "runtime_cache",
]
