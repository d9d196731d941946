"""Guard layer configuration.

A :class:`GuardConfig` switches the integrity subsystem on for one
simulation: invariant checking on every drain step (the SMS
conservation laws and the full value-exact LIFO contents) and the
forward-progress watchdog on the RT unit's resident-warp loop.  Guards
are pure observers — a guarded run produces bit-identical counters to
an unguarded one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Default number of consecutive no-progress warp iterations tolerated
#: before the watchdog declares a livelock.  Healthy iterations always
#: advance at least one lane cursor, so any window of pure non-progress
#: indicates a stuck warp; the margin only exists to keep the diagnosis
#: unambiguous in the error message.
DEFAULT_STALL_WINDOW = 64


@dataclass(frozen=True)
class GuardConfig:
    """What the integrity layer adds to one simulation.

    A guarded run always wraps every stack model in a
    :class:`~repro.guard.invariants.GuardedStack`, verifies the
    invariants after every warp iteration and arms the forward-progress
    watchdog.  ``max_cycles`` additionally bounds the simulated clock
    (``None`` = unbounded); ``stall_window`` is the watchdog's livelock
    window.
    """

    max_cycles: Optional[int] = None
    stall_window: int = DEFAULT_STALL_WINDOW

    def __post_init__(self) -> None:
        from repro.errors import ConfigError

        if self.stall_window < 1:
            raise ConfigError("stall_window must be >= 1")
        if self.max_cycles is not None and self.max_cycles < 1:
            raise ConfigError("max_cycles must be >= 1 (or None)")
