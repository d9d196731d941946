"""Simulation integrity layer: invariant checking and a watchdog.

Two pillars (see ``docs/architecture.md``):

* :mod:`repro.guard.invariants` — wraps every stack model and asserts
  the SMS conservation laws on every drain step;
* :mod:`repro.guard.watchdog` — converts livelocks and cycle-budget
  overruns in the RT unit's scheduler loop into structured
  :class:`~repro.errors.SimulationStallError` instead of hangs.

Enable with ``GPUSimulator(config, guard=GuardConfig())`` or the CLI's
``--guard`` flag; guards are pure observers, so a guarded run is
bit-identical to an unguarded one.  ``tests/guard/chaos.py`` injects
faults into a live simulation to prove both pillars fire.
"""

from repro.guard.config import GuardConfig
from repro.guard.invariants import GuardedStack, InvariantChecker
from repro.guard.watchdog import ProgressWatchdog

__all__ = [
    "GuardConfig",
    "GuardedStack",
    "InvariantChecker",
    "ProgressWatchdog",
]
