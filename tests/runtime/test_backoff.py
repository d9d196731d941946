"""Backoff tests: the deterministic schedule and its executor wiring."""

import hashlib
from dataclasses import dataclass

import pytest

from repro.runtime import backoff
from repro.runtime.backoff import backoff_delay
from repro.runtime.executor import ExecutionPolicy, run_jobs


def schedule(monkeypatch, base=0.1, cap=2.0, seed=0):
    """Set the module's backoff constants for one test."""
    monkeypatch.setattr(backoff, "BACKOFF_BASE_S", base)
    monkeypatch.setattr(backoff, "BACKOFF_CAP_S", cap)
    monkeypatch.setattr(backoff, "BACKOFF_SEED", seed)


def test_schedule_is_deterministic(monkeypatch):
    schedule(monkeypatch, seed=3)
    a = [backoff_delay(n, key="k") for n in range(1, 6)]
    b = [backoff_delay(n, key="k") for n in range(1, 6)]
    assert a == b


def test_exponential_envelope_and_cap(monkeypatch):
    schedule(monkeypatch, base=0.1, cap=2.0)
    for attempt in range(1, 10):
        raw = min(2.0, 0.1 * 2.0 ** (attempt - 1))
        delay = backoff_delay(attempt, key="x")
        # Jitter keeps the delay in [raw/2, raw).
        assert raw / 2 <= delay < raw
    assert backoff_delay(50) < 2.0


def test_jitter_differs_by_key_and_seed(monkeypatch):
    base = backoff_delay(3, key="alpha")
    assert backoff_delay(3, key="beta") != base
    schedule(monkeypatch, seed=1)
    assert backoff_delay(3, key="alpha") != base


def test_zero_base_disables_backoff(monkeypatch):
    schedule(monkeypatch, base=0.0)
    assert backoff_delay(4) == 0.0


def test_attempt_floor():
    assert backoff_delay(0) == backoff_delay(1)


def test_policy_retry_delay_matches_helper(monkeypatch):
    default = ExecutionPolicy().retry_delay(3, key="job")
    schedule(monkeypatch, base=0.2, cap=1.5, seed=7)
    patched = ExecutionPolicy().retry_delay(3, key="job")
    assert patched == backoff_delay(3, key="job")
    assert patched != default


@dataclass(frozen=True)
class FlakyJob:
    """Fails its first attempt (marker file), then succeeds."""

    name: str
    marker_dir: str

    def key(self) -> str:
        return hashlib.sha256(f"flaky:{self.name}".encode()).hexdigest()

    def run(self, store=None):
        import os

        marker = os.path.join(self.marker_dir, f"flaky-{self.name}")
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("1")
            raise ValueError("first attempt fails")
        return {"name": self.name}


def test_executor_records_backoff_metrics(tmp_path, monkeypatch):
    schedule(monkeypatch, base=0.01, cap=0.05)
    job = FlakyJob(name="a", marker_dir=str(tmp_path))
    report = run_jobs([job], policy=ExecutionPolicy(workers=1, retries=2))
    assert report.results == [{"name": "a"}]
    assert report.metrics.retries == 1
    # The recorded total is exactly the deterministic schedule's sum.
    expected = backoff_delay(1, key=job.key())
    assert report.metrics.backoff_total_s == pytest.approx(expected)
