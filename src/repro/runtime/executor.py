"""Process-pool job executor with retry and serial fallback.

:func:`run_jobs` resolves a list of jobs against the result store and a
``concurrent.futures.ProcessPoolExecutor``:

1. every job's content key is checked against the store (cache hits are
   free and bit-identical, since the simulation is deterministic);
2. identical jobs within one call are deduplicated and computed once;
3. misses run on a bounded pool of worker processes — a job that
   raises a :class:`~repro.errors.ReproError` fails at once, any other
   failure is re-run immediately up to :data:`RETRIES` times, and a
   broken pool (a worker killed by the OS, say) degrades the remaining
   jobs to serial in-process execution rather than failing the sweep;
4. completed results are written back to the store.

Results come back in job order; a job that fails for good raises
:class:`~repro.errors.JobExecutionError` carrying the failure's
traceback as ``traceback_text``.  There is no wall-clock timeout: a job
is deterministic, and the guard watchdog's ``max_cycles`` is what bounds
a runaway simulation.  This is the one scheduler for content-addressed
jobs: every sweep resolves its jobs here, through
:class:`~repro.runtime.cache.CachedWorkloadCache`.

A job is any picklable object with ``key() -> str`` and
``run(store)``; every run (pool worker, serial, fallback) receives the
call's store, through which a :class:`~repro.runtime.job.SimulationJob`
also reads and writes its phase one.  A job that has a ``phase_key()``
is held back while another in-flight job is still building the same
phase one (its artifact is not yet in the store), so a cold sweep
builds each scene once and the other workers load it.  Without a
store nothing is persisted and jobs dispatch in submission order.

A :class:`~repro.errors.ReproError` — an unknown scene, an invalid
configuration, a guard violation — is *deterministic*: the same spec
raises it again on every run, so it skips the retry budget.  Guard
violations (:class:`~repro.errors.GuardViolationError`) are also
recorded as structured failures in the store's ``failures/`` sidecar
(never the result cache).  Only other exceptions (``MemoryError``,
``OSError``, ...) can be environmental, and they get the re-run.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.errors import GuardViolationError, JobExecutionError, ReproError
from repro.runtime.metrics import ProgressReporter, RuntimeMetrics
from repro.runtime.store import ResultStore

#: Immediate re-runs after a job's first failure that is not a
#: :class:`~repro.errors.ReproError` (those are never re-run).
RETRIES = 1

#: Seconds between store polls while a held-back job waits beside a
#: free worker slot for another job's phase one.
_HOLD_POLL_S = 0.05


@dataclass(frozen=True)
class ExecutionPolicy:
    """Executor knobs for one sweep.

    ``workers=None`` auto-sizes to the machine (``os.cpu_count()``,
    capped by the number of distinct pending jobs); ``workers<=1`` runs
    serially in-process with no pool at all.  ``progress`` draws a live
    stderr progress line.
    """

    workers: Optional[int] = None
    progress: bool = False

    def effective_workers(self, pending: int) -> int:
        """Pool size for ``pending`` distinct jobs under this policy."""
        workers = self.workers if self.workers is not None else os.cpu_count() or 1
        return max(1, min(workers, pending))


@dataclass
class RunReport:
    """What a :func:`run_jobs` call produced."""

    #: One result per submitted job, in submission order.
    results: List[Any]
    #: Counters and latencies for the run.
    metrics: RuntimeMetrics


@dataclass
class _JobState:
    """Dispatch bookkeeping for one distinct job."""

    job: Any
    key: str
    indices: List[int] = field(default_factory=list)
    attempts: int = 0
    #: The job's phase key, when it has one and the call has a store.
    phase: Optional[str] = None


def _execute(job, store):
    """Worker entry point: run the job (module-level, so it pickles)."""
    return job.run(store)


def run_jobs(
    jobs: Sequence,
    store: Optional[ResultStore] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> RunReport:
    """Resolve every job via store, pool, or serial fallback.

    ``jobs`` may be :class:`~repro.runtime.job.SimulationJob` instances
    or any picklable object with ``key() -> str`` and ``run(store)``.
    """
    policy = policy or ExecutionPolicy()
    jobs = list(jobs)
    metrics = RuntimeMetrics(jobs_total=len(jobs))
    progress = ProgressReporter(enabled=policy.progress)
    results: List[Any] = [None] * len(jobs)
    started = time.monotonic()

    # Store lookups + same-run deduplication.
    pending: "OrderedDict[str, _JobState]" = OrderedDict()
    for index, job in enumerate(jobs):
        key = job.key()
        state = pending.get(key)
        if state is not None:
            state.indices.append(index)
            metrics.deduplicated += 1
            continue
        if store is not None:
            hit = store.get(key)
            if hit is not None:
                results[index] = hit
                metrics.cache_hits += 1
                progress.update(metrics)
                continue
        phase_key = getattr(job, "phase_key", None)
        pending[key] = _JobState(
            job=job, key=key, indices=[index],
            phase=phase_key() if store is not None and phase_key else None,
        )

    states = list(pending.values())
    try:
        if states:
            workers = policy.effective_workers(len(states))
            if workers <= 1:
                _run_serial(states, results, store, metrics, progress)
            else:
                _run_parallel(states, results, store, metrics, progress,
                              workers)
    finally:
        metrics.running = 0
        metrics.elapsed_seconds = time.monotonic() - started
        progress.close(metrics)
    return RunReport(results=results, metrics=metrics)


def _record(state, value, results, store, metrics) -> None:
    """File a finished job's value under every index that wants it."""
    for index in state.indices:
        results[index] = value
    metrics.simulated += 1
    backend = getattr(value, "backend", None)
    if backend:
        metrics.backends[backend] = metrics.backends.get(backend, 0) + 1
    if store is not None and hasattr(value, "to_dict"):
        spec = state.job.spec() if hasattr(state.job, "spec") else None
        store.put(state.key, value, spec=spec)


def _describe(job) -> str:
    return job.describe() if hasattr(job, "describe") else repr(job)


def _format_traceback(exc) -> str:
    """The full formatted traceback of a caught exception.

    Includes chained causes — for pool workers that is the remote
    traceback ``concurrent.futures`` attaches as ``__cause__``, so the
    record names the raise site inside the worker, not just this
    process's ``future.result()`` frame.
    """
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


def _give_up(state, exc, store, metrics):
    """Raise the terminal failure for a job, recording guard violations.

    A :class:`GuardViolationError` is a deterministic integrity failure:
    retrying cannot help, and caching any partial result would poison
    the store.  Record it as a structured failure sidecar instead — with
    the captured traceback attached, so the record pinpoints the raise
    site — then surface it wrapped in :class:`JobExecutionError`.  The
    wrapper carries the traceback text as ``traceback_text`` for
    non-guard failures too.
    """
    metrics.failed += 1
    traceback_text = _format_traceback(exc)
    if isinstance(exc, GuardViolationError):
        if store is not None:
            spec = state.job.spec() if hasattr(state.job, "spec") else None
            store.record_failure(
                state.key, exc, spec=spec, traceback_text=traceback_text
            )
        error = JobExecutionError(
            f"job {_describe(state.job)} violated a simulation "
            f"integrity guard (not retried): {exc}"
        )
        error.traceback_text = traceback_text
        raise error from exc
    error = JobExecutionError(
        f"job {_describe(state.job)} failed after "
        f"{state.attempts + 1} attempt(s): {exc}"
    )
    error.traceback_text = traceback_text
    raise error from exc


def _retry_or_give_up(state, exc, store, metrics) -> None:
    """Count a failed job's immediate re-run, or raise its failure.

    A :class:`ReproError` and a job that has used its :data:`RETRIES`
    go to :func:`_give_up`.
    """
    if isinstance(exc, ReproError) or state.attempts >= RETRIES:
        _give_up(state, exc, store, metrics)
    state.attempts += 1
    metrics.retries += 1


def _run_one_serial(state, metrics, store=None):
    """One job in-process, honoring the retry budget."""
    while True:
        try:
            return state.job.run(store)
        except Exception as exc:
            _retry_or_give_up(state, exc, store, metrics)


def _run_serial(states, results, store, metrics, progress) -> None:
    """Serial in-process execution (workers<=1, or fallback)."""
    for state in states:
        metrics.running = 1
        progress.update(metrics)
        begun = time.monotonic()
        value = _run_one_serial(state, metrics, store=store)
        metrics.job_seconds.append(time.monotonic() - begun)
        metrics.running = 0
        _record(state, value, results, store, metrics)
        progress.update(metrics)


def _run_parallel(states, results, store, metrics, progress, workers) -> None:
    """Pool execution with retry and degradation.

    Jobs are dispatched one per free worker slot.  A job whose phase
    one an in-flight job is still building waits (see
    :func:`_next_ready`); while one waits beside a free slot, the loop
    polls the store every :data:`_HOLD_POLL_S`.  A broken pool diverts
    every unfinished job to ``fallback``, which re-runs them serially in
    this process.
    """
    queue = deque(states)
    in_flight = {}  # future -> (state, start time)
    building = set()  # phase keys an in-flight job is building
    fallback: List[_JobState] = []
    broken = False
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while queue or in_flight:
            building = {phase for phase in building
                        if not store.has_traces(phase)}
            while queue and len(in_flight) < workers and not broken:
                state = _next_ready(queue, building)
                if state is None:
                    break
                try:
                    future = pool.submit(_execute, state.job, store)
                except RuntimeError:  # pool broken or shut down
                    broken = True
                    fallback.append(state)
                    break
                in_flight[future] = (state, time.monotonic())
                if state.phase is not None \
                        and not store.has_traces(state.phase):
                    building.add(state.phase)
            metrics.running = len(in_flight)
            progress.update(metrics)
            if not in_flight:
                if broken:
                    fallback.extend(queue)
                    queue.clear()
                    break
                continue
            held = bool(queue) and len(in_flight) < workers
            done, _ = wait(
                list(in_flight), timeout=_HOLD_POLL_S if held else None,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                state, begun = in_flight.pop(future)
                building.discard(state.phase)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    broken = True
                    fallback.append(state)
                except Exception as exc:
                    _retry_or_give_up(state, exc, store, metrics)
                    queue.append(state)
                else:
                    metrics.job_seconds.append(time.monotonic() - begun)
                    _record(state, value, results, store, metrics)
                    progress.update(metrics)
            if broken:
                fallback.extend(state for state, _ in in_flight.values())
                in_flight.clear()
                fallback.extend(queue)
                queue.clear()
                break
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    if fallback:
        metrics.serial_fallbacks += len(fallback)
        _run_serial(fallback, results, store, metrics, progress)


def _next_ready(queue, building) -> Optional[_JobState]:
    """Take the first queued job whose phase one nobody is building.

    ``None`` when every queued job waits on an in-flight build.  With
    nothing being built this is ``queue.popleft()``.
    """
    for index, state in enumerate(queue):
        if state.phase not in building:
            del queue[index]
            return state
    return None
