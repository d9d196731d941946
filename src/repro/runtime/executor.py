"""Process-pool job executor with retry, timeout and serial fallback.

:func:`run_jobs` resolves a list of jobs against the result store and a
``concurrent.futures.ProcessPoolExecutor``:

1. every job's content key is checked against the store (cache hits are
   free and bit-identical, since the simulation is deterministic);
2. identical jobs within one call are deduplicated and computed once;
3. misses run on a bounded pool of worker processes — each failure is
   retried on a deterministic seeded exponential-backoff-with-jitter
   schedule (:func:`repro.runtime.backoff.backoff_delay`) up to the
   policy's retry budget, each job has an optional wall-clock timeout,
   and a broken pool (a worker killed by the OS, say) degrades the
   remaining jobs to serial in-process execution rather than failing
   the sweep;
4. completed results are written back to the store.

Results come back in job order; jobs that can never succeed raise
:class:`~repro.errors.JobExecutionError` after exhausting retries.
This is the one scheduler for content-addressed jobs: local sweeps,
campaigns and ``repro serve`` (:mod:`repro.service`) all resolve their
jobs here.

Guard violations (:class:`~repro.errors.GuardViolationError`) are
*deterministic* — the same spec fails the same way every time — so they
skip the retry budget entirely.  Instead the structured failure is
recorded in the store's ``failures/`` sidecar (never the result cache)
and the job raises immediately.
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

from repro.errors import GuardViolationError, JobExecutionError
from repro.runtime.backoff import backoff_delay
from repro.runtime.metrics import ProgressReporter, RuntimeMetrics
from repro.runtime.store import ResultStore

#: Seconds between timeout checks while futures are in flight.
_TIMEOUT_TICK = 0.05


@dataclass(frozen=True)
class ExecutionPolicy:
    """Executor knobs for one sweep.

    ``workers=None`` auto-sizes to the machine (``os.cpu_count()``,
    capped by the number of distinct pending jobs); ``workers<=1`` runs
    serially in-process with no pool at all.  ``timeout`` bounds each
    job's wall-clock seconds in a worker — an expired job is cancelled
    and re-run serially in-process (where it cannot be preempted but
    also cannot be lost).  ``retries`` is the number of *additional*
    attempts after a failure, each preceded by a deterministic seeded
    exponential-backoff sleep (:func:`repro.runtime.backoff.backoff_delay`).
    """

    workers: Optional[int] = None
    timeout: Optional[float] = None
    retries: int = 2
    progress: bool = False

    def effective_workers(self, pending: int) -> int:
        """Pool size for ``pending`` distinct jobs under this policy."""
        workers = self.workers if self.workers is not None else os.cpu_count() or 1
        return max(1, min(workers, pending))

    def retry_delay(self, attempt: int, key: str = "") -> float:
        """The deterministic backoff before retry number ``attempt``."""
        return backoff_delay(attempt, key=key)


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


def _execute(job):
    """Worker entry point: run the job (module-level, so it pickles)."""
    return job.run()


def run_jobs(
    jobs: Sequence,
    store: Optional[ResultStore] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> RunReport:
    """Resolve every job via store, pool, or serial fallback.

    ``jobs`` may be :class:`~repro.runtime.job.SimulationJob` instances
    or any picklable object with ``key() -> str`` and ``run()``.
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
        pending[key] = _JobState(job=job, key=key, indices=[index])

    states = list(pending.values())
    try:
        if states:
            workers = policy.effective_workers(len(states))
            if workers <= 1:
                _run_serial(states, results, store, policy, metrics,
                            progress)
            else:
                _run_parallel(states, results, store, policy, metrics,
                              progress, workers)
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


def _give_up(state, exc, store, metrics, traceback_text=None):
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
    if traceback_text is None:
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


def _run_one_serial(state, policy, metrics, store=None):
    """One job in-process, honoring the retry budget."""
    while True:
        try:
            return state.job.run()
        except Exception as exc:
            if (isinstance(exc, GuardViolationError)
                    or state.attempts >= policy.retries):
                _give_up(state, exc, store, metrics,
                         traceback_text=_format_traceback(exc))
            state.attempts += 1
            metrics.retries += 1
            delay = policy.retry_delay(state.attempts, key=state.key)
            metrics.backoff_total_s += delay
            time.sleep(delay)


def _run_serial(states, results, store, policy, metrics, progress) -> None:
    """Serial in-process execution (workers<=1, or fallback)."""
    for state in states:
        metrics.running = 1
        progress.update(metrics)
        begun = time.monotonic()
        value = _run_one_serial(state, policy, metrics, store=store)
        metrics.job_seconds.append(time.monotonic() - begun)
        metrics.running = 0
        _record(state, value, results, store, metrics)
        progress.update(metrics)


def _run_parallel(states, results, store, policy, metrics, progress,
                  workers) -> None:
    """Pool execution with retry, per-job timeout, and degradation.

    Jobs are dispatched one per free worker slot (so a job's timeout
    clock starts when it can actually start running, not when it is
    queued).  Timeouts and a broken pool both divert jobs to
    ``fallback``, which re-runs them serially in this process.
    """
    queue = deque(states)
    in_flight = {}  # future -> (state, start time)
    fallback: List[_JobState] = []
    broken = False
    abandoned = False  # a timed-out task is still occupying a worker
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while queue or in_flight:
            while queue and len(in_flight) < workers and not broken:
                state = queue.popleft()
                try:
                    future = pool.submit(_execute, state.job)
                except RuntimeError:  # pool broken or shut down
                    broken = True
                    fallback.append(state)
                    break
                in_flight[future] = (state, time.monotonic())
            metrics.running = len(in_flight)
            progress.update(metrics)
            if not in_flight:
                if broken:
                    fallback.extend(queue)
                    queue.clear()
                    break
                continue
            tick = _TIMEOUT_TICK if policy.timeout is not None else None
            done, _ = wait(
                list(in_flight), timeout=tick, return_when=FIRST_COMPLETED
            )
            for future in done:
                state, begun = in_flight.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    broken = True
                    fallback.append(state)
                except Exception as exc:
                    if (isinstance(exc, GuardViolationError)
                            or state.attempts >= policy.retries):
                        _give_up(state, exc, store, metrics,
                                 traceback_text=_format_traceback(exc))
                    state.attempts += 1
                    metrics.retries += 1
                    delay = policy.retry_delay(state.attempts, key=state.key)
                    metrics.backoff_total_s += delay
                    time.sleep(delay)
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
            if policy.timeout is not None:
                now = time.monotonic()
                for future, (state, begun) in list(in_flight.items()):
                    if now - begun > policy.timeout:
                        if not future.cancel():
                            abandoned = True
                        del in_flight[future]
                        metrics.timeouts += 1
                        fallback.append(state)
    finally:
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        if abandoned:
            # Every live result is already collected, so any worker still
            # busy is running a task nobody wants; don't let it keep the
            # interpreter (or the next sweep's CPUs) hostage.
            for process in processes:
                process.terminate()
    if fallback:
        metrics.serial_fallbacks += len(fallback)
        _run_serial(fallback, results, store, policy, metrics, progress)
