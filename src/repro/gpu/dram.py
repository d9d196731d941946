"""DRAM timing: fixed access latency plus a bandwidth queue.

The queue is what makes traffic *cost* something beyond latency (which
multi-warp scheduling can hide): the controller services one 32-byte
sector every ``service_cycles``; a full 128-byte line is four sectors,
an 8-byte stack spill one.  Bursts of spill traffic therefore push each
other's completion times out, reproducing the paper's observation that
stack overflows degrade performance through bandwidth pressure, not just
latency.
"""

from __future__ import annotations

from repro.errors import ConfigError


class Dram:
    """A single-queue DRAM channel."""

    def __init__(self, latency: int = 220, service_cycles: int = 8) -> None:
        if latency < 0 or service_cycles < 1:
            raise ConfigError("invalid DRAM timing parameters")
        self.latency = latency
        self.service_cycles = service_cycles
        self._next_free = 0
        self.reads = 0
        self.writes = 0

    def _occupy(self, now: int, sectors: int) -> int:
        start = self._next_free
        if now > start:
            start = now
        self._next_free = start + self.service_cycles * (sectors if sectors > 1 else 1)
        return start

    def read(self, now: int, sectors: int = 4) -> int:
        """Issue a read of ``sectors`` at ``now``; returns completion time."""
        start = self._occupy(now, sectors)
        self.reads += 1
        return start + self.latency

    def write(self, now: int, sectors: int = 4) -> int:
        """Issue a write-back at ``now``; returns when the channel frees.

        Writes consume bandwidth but nothing waits on their completion.
        """
        start = self._occupy(now, sectors)
        self.writes += 1
        return self._next_free

    def reset(self) -> None:
        """Clear queue state and counters."""
        self._next_free = 0
        self.reads = 0
        self.writes = 0
