"""Progress and throughput accounting for runtime sweeps.

:class:`RuntimeMetrics` is the summary object every executor run returns
(and :class:`~repro.runtime.cache.CachedWorkloadCache` accumulates
across sweeps); :class:`ProgressReporter` renders it as a live,
single-line stderr progress display.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RuntimeMetrics:
    """Counters for one (or several merged) executor runs."""

    #: Jobs submitted, including duplicates and cache hits.
    jobs_total: int = 0
    #: Jobs served from the persistent result store.
    cache_hits: int = 0
    #: Jobs actually simulated to completion.
    simulated: int = 0
    #: Jobs resolved by pointing at another identical job in the same run.
    deduplicated: int = 0
    #: Attempts re-run after a failure.
    retries: int = 0
    #: Jobs degraded to serial in-process execution (broken pool).
    serial_fallbacks: int = 0
    #: Jobs that failed for good.
    failed: int = 0
    #: Jobs currently executing (transient; only meaningful live).
    running: int = 0
    #: Wall-clock seconds each simulated job took.
    job_seconds: List[float] = field(default_factory=list)
    #: Wall-clock seconds for the whole run.
    elapsed_seconds: float = 0.0
    #: Simulated jobs per *effective* timing backend (what actually ran,
    #: after any vector-to-stepped fallback) — e.g. ``{"vector": 12,
    #: "stepped": 3}``.  Cache hits and dedups are not counted; only
    #: fresh simulations say anything about backend usage.
    backends: Dict[str, int] = field(default_factory=dict)

    @property
    def done(self) -> int:
        """Jobs resolved so far, however they were served."""
        return self.cache_hits + self.simulated + self.deduplicated

    @property
    def throughput(self) -> float:
        """Resolved jobs per second of wall clock."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.done / self.elapsed_seconds

    @property
    def mean_job_seconds(self) -> float:
        """Mean per-job simulation latency (simulated jobs only)."""
        if not self.job_seconds:
            return 0.0
        return sum(self.job_seconds) / len(self.job_seconds)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submitted jobs served from the store."""
        if self.jobs_total == 0:
            return 0.0
        return self.cache_hits / self.jobs_total

    def merge(self, other: "RuntimeMetrics") -> "RuntimeMetrics":
        """Accumulate another run's counters into this one."""
        self.jobs_total += other.jobs_total
        self.cache_hits += other.cache_hits
        self.simulated += other.simulated
        self.deduplicated += other.deduplicated
        self.retries += other.retries
        self.serial_fallbacks += other.serial_fallbacks
        self.failed += other.failed
        self.job_seconds.extend(other.job_seconds)
        self.elapsed_seconds += other.elapsed_seconds
        for backend, count in other.backends.items():
            self.backends[backend] = self.backends.get(backend, 0) + count
        return self

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        parts = [
            f"{self.done}/{self.jobs_total} jobs",
            f"{self.cache_hits} cached",
            f"{self.simulated} simulated",
        ]
        if self.deduplicated:
            parts.append(f"{self.deduplicated} deduplicated")
        if self.backends:
            breakdown = "/".join(
                f"{count} {backend}"
                for backend, count in sorted(self.backends.items())
            )
            parts.append(f"backends {breakdown}")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.serial_fallbacks:
            parts.append(f"{self.serial_fallbacks} serial fallbacks")
        if self.failed:
            parts.append(f"{self.failed} failed")
        parts.append(f"{self.elapsed_seconds:.2f}s")
        if self.simulated:
            parts.append(f"{self.mean_job_seconds:.2f}s/job")
        if self.elapsed_seconds > 0:
            parts.append(f"{self.throughput:.1f} jobs/s")
        return ", ".join(parts)


class ProgressReporter:
    """Live single-line progress display on stderr (or any stream).

    Disabled by default; the executor updates it after every state
    change.  The line is rewritten in place with ``\\r`` and finished
    with a newline by :meth:`close`, so it composes with ordinary
    stdout report output.
    """

    def __init__(self, enabled: bool = False, stream=None):
        self.enabled = enabled
        self.stream = stream if stream is not None else sys.stderr
        self._wrote = False

    def update(self, metrics: RuntimeMetrics) -> None:
        """Redraw the progress line for the current counters."""
        if not self.enabled:
            return
        line = (
            f"[repro] {metrics.done}/{metrics.jobs_total} done "
            f"({metrics.cache_hits} cached, {metrics.running} running"
        )
        if metrics.failed:
            line += f", {metrics.failed} failed"
        line += ")"
        self.stream.write("\r" + line.ljust(79))
        self.stream.flush()
        self._wrote = True

    def close(self, metrics: Optional[RuntimeMetrics] = None) -> None:
        """Finish the line; optionally print the final summary."""
        if not self.enabled:
            return
        if metrics is not None:
            self.stream.write(
                "\r" + f"[repro] {metrics.summary()}".ljust(79) + "\n"
            )
        elif self._wrote:
            self.stream.write("\n")
        self.stream.flush()
