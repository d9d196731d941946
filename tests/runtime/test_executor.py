"""Executor tests: ordering, dedup, retry and pool-failure paths.

Fault injection uses :class:`StubJob`, a picklable job whose behavior is
steered by flags and cross-process counter files — so a job can fail its
first N attempts (retry path), raise a ``ReproError`` (no-retry path) or
kill the worker process outright (broken-pool degradation path) while
still succeeding in-process.  Each job with a counter directory leaves
``<token>.count``, the number of times it ran.

With ``workers=2`` the retry tests pair the faulty job with a healthy
one: a single distinct job would run serially whatever the policy.
"""

import hashlib
import multiprocessing
import os
from dataclasses import dataclass

import pytest

from repro.errors import JobExecutionError, SimulationError
from repro.runtime.executor import RETRIES, ExecutionPolicy, run_jobs


def _in_worker() -> bool:
    """True when executing inside a pool worker process."""
    return multiprocessing.parent_process() is not None


@dataclass(frozen=True)
class StubJob:
    """Configurable fault-injection job (module-level, so it pickles)."""

    token: str
    counter_dir: str = ""
    fail_first: int = 0
    kill_worker: bool = False
    repro_error: bool = False

    def key(self) -> str:
        return hashlib.sha256(self.token.encode()).hexdigest()

    def describe(self) -> str:
        return f"stub:{self.token}"

    def _attempt(self) -> int:
        """Count executions across processes via a file per token.

        The count is replaced atomically: a broken pool terminates every
        worker, and one killed between truncating and writing the file
        would leave the serial fallback an empty count to parse.
        """
        path = os.path.join(self.counter_dir, f"{self.token}.count")
        count = 1
        if os.path.exists(path):
            with open(path) as handle:
                count = int(handle.read()) + 1
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as handle:
            handle.write(str(count))
        os.replace(tmp, path)
        return count

    def run(self, store=None) -> str:
        if self.kill_worker and _in_worker():
            os._exit(13)
        if self.counter_dir:
            attempt = self._attempt()
            if self.repro_error:
                raise SimulationError(f"injected simulation error #{attempt}")
            if attempt <= self.fail_first:
                raise RuntimeError(f"injected failure #{attempt}")
        return f"ok:{self.token}"


def stub(token, tmp_path, **kwargs):
    return StubJob(token=token, counter_dir=str(tmp_path), **kwargs)


def with_company(job, tmp_path, workers):
    """``job``, plus a healthy job when ``workers > 1`` so a pool runs."""
    if workers == 1:
        return [job]
    return [job, stub("steady", tmp_path)]


def runs(tmp_path, token) -> int:
    """How many times the job ``token`` ran."""
    return int((tmp_path / f"{token}.count").read_text())


def test_serial_results_in_order(tmp_path):
    jobs = [stub(f"j{i}", tmp_path) for i in range(3)]
    report = run_jobs(jobs, policy=ExecutionPolicy(workers=1))
    assert report.results == ["ok:j0", "ok:j1", "ok:j2"]
    assert report.metrics.simulated == 3
    assert report.metrics.done == 3


def test_parallel_results_in_order(tmp_path):
    jobs = [stub(f"p{i}", tmp_path) for i in range(5)]
    report = run_jobs(jobs, policy=ExecutionPolicy(workers=2))
    assert report.results == [f"ok:p{i}" for i in range(5)]
    assert report.metrics.simulated == 5
    assert len(report.metrics.job_seconds) == 5


def test_duplicate_jobs_computed_once(tmp_path):
    job = stub("dup", tmp_path)
    report = run_jobs([job, job, job],
                      policy=ExecutionPolicy(workers=1))
    assert report.results == ["ok:dup"] * 3
    assert report.metrics.simulated == 1
    assert report.metrics.deduplicated == 2
    # The counter file proves a single execution.
    assert (tmp_path / "dup.count").read_text() == "1"


@pytest.mark.parametrize("workers", [1, 2])
def test_retry_then_succeed(tmp_path, workers):
    jobs = with_company(stub("flaky", tmp_path, fail_first=1), tmp_path,
                        workers)
    report = run_jobs(jobs, policy=ExecutionPolicy(workers=workers))
    assert report.results[0] == "ok:flaky"
    assert report.metrics.retries == 1
    assert report.metrics.failed == 0
    assert runs(tmp_path, "flaky") == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_retry_budget_exhausted_raises(tmp_path, workers):
    jobs = with_company(stub("doomed", tmp_path, fail_first=10), tmp_path,
                        workers)
    with pytest.raises(JobExecutionError, match="stub:doomed"):
        run_jobs(jobs, policy=ExecutionPolicy(workers=workers))
    assert runs(tmp_path, "doomed") == RETRIES + 1


@pytest.mark.parametrize("workers", [1, 2])
def test_repro_error_fails_on_first_attempt(tmp_path, workers):
    """A ReproError is deterministic, so the job is never re-run."""
    jobs = with_company(stub("invalid", tmp_path, repro_error=True),
                        tmp_path, workers)
    with pytest.raises(JobExecutionError, match="stub:invalid") as excinfo:
        run_jobs(jobs, policy=ExecutionPolicy(workers=workers))
    assert runs(tmp_path, "invalid") == 1
    assert isinstance(excinfo.value.__cause__, SimulationError)
    rendered = excinfo.value.traceback_text
    assert "injected simulation error #1" in rendered
    assert "in run" in rendered  # the raise site, not the wrapper


def test_broken_pool_degrades_to_serial(tmp_path):
    # The middle job kills its worker process; BrokenProcessPool must
    # divert every unfinished job to in-process execution.
    jobs = [stub("a", tmp_path), stub("boom", tmp_path, kill_worker=True),
            stub("b", tmp_path), stub("c", tmp_path)]
    report = run_jobs(jobs, policy=ExecutionPolicy(workers=2))
    assert report.results == ["ok:a", "ok:boom", "ok:b", "ok:c"]
    assert report.metrics.serial_fallbacks >= 1
    assert report.metrics.done == 4


def test_empty_job_list():
    report = run_jobs([], policy=ExecutionPolicy(workers=4))
    assert report.results == []
    assert report.metrics.jobs_total == 0


def test_auto_worker_sizing_caps_to_pending():
    policy = ExecutionPolicy(workers=None)
    assert policy.effective_workers(1) == 1
    assert policy.effective_workers(10 ** 6) >= 1
    assert ExecutionPolicy(workers=8).effective_workers(3) == 3
    assert ExecutionPolicy(workers=0).effective_workers(5) == 1


# -- traceback capture on terminal failures -------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_exhausted_retries_attach_traceback(tmp_path, workers):
    """The JobExecutionError surfaces the raise site — including the
    remote traceback when the final attempt died inside a pool worker."""
    jobs = with_company(stub("tbdoomed", tmp_path, fail_first=10), tmp_path,
                        workers)
    with pytest.raises(JobExecutionError) as excinfo:
        run_jobs(jobs, policy=ExecutionPolicy(workers=workers))
    rendered = excinfo.value.traceback_text
    assert "RuntimeError" in rendered
    assert "injected failure" in rendered


@dataclass(frozen=True)
class GuardTripJob:
    """Deterministically violates an integrity guard (module-level, so
    it pickles)."""

    token: str

    def key(self) -> str:
        return hashlib.sha256(f"guard:{self.token}".encode()).hexdigest()

    def describe(self) -> str:
        return f"guardtrip:{self.token}"

    def spec(self):
        return {"token": self.token}

    def run(self, store=None):
        from repro.errors import InvariantViolationError

        raise InvariantViolationError(
            "LIFO violated", cycle=7, sm_id=0, warp_id=1, lane=2,
            component="stack[slot=0]",
        )


def test_guard_violation_failure_record_carries_traceback(tmp_path):
    from repro.runtime.store import ResultStore

    store = ResultStore(tmp_path / "store")
    job = GuardTripJob("g1")
    with pytest.raises(JobExecutionError, match="integrity guard") as excinfo:
        run_jobs([job], store=store,
                 policy=ExecutionPolicy(workers=1))
    assert "InvariantViolationError" in excinfo.value.traceback_text
    payload = store.failure_for(job.key())
    rendered = payload["error"]["traceback"]
    assert "InvariantViolationError" in rendered
    assert "in run" in rendered  # pinpoints the raise site, not the wrapper
