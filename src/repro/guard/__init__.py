"""Simulation integrity layer: invariant checking, watchdog, chaos.

Three pillars (see ``docs/architecture.md``):

* :mod:`repro.guard.invariants` — wraps every stack model and asserts
  the SMS conservation laws on every drain step;
* :mod:`repro.guard.watchdog` — converts livelocks and cycle-budget
  overruns in the RT unit's scheduler loop into structured
  :class:`~repro.errors.SimulationStallError` instead of hangs;
* :mod:`repro.guard.chaos` — deterministically injects faults and
  proves the two detectors above actually fire.

Enable with ``GPUSimulator(config, guard=GuardConfig())`` or the CLI's
``--guard`` flag; guards are pure observers, so a guarded run is
bit-identical to an unguarded one.
"""

from repro.guard.chaos import (
    FAULT_CLASSES,
    ChaosReport,
    FaultOutcome,
    FaultSpec,
    run_chaos_campaign,
)
from repro.guard.config import GuardConfig
from repro.guard.invariants import GuardedStack, InvariantChecker
from repro.guard.watchdog import ProgressWatchdog

__all__ = [
    "GuardConfig",
    "GuardedStack",
    "InvariantChecker",
    "ProgressWatchdog",
    "FaultSpec",
    "FaultOutcome",
    "ChaosReport",
    "FAULT_CLASSES",
    "run_chaos_campaign",
]
