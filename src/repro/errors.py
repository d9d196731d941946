"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything this package raises with a single ``except`` clause.

Simulation-side errors (:class:`SimulationError`, :class:`StackError` and
their subclasses) carry structured diagnostic fields — the cycle, SM, warp,
lane and component where the inconsistency was observed — so a failure deep
inside a long campaign pinpoints itself instead of printing a bare message.
The fields are keyword-only and optional; plain ``StackError("message")``
construction keeps working everywhere.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GeometryError(ReproError):
    """Invalid geometric input (degenerate triangle, empty bounds, ...)."""


class SceneError(ReproError):
    """Invalid scene construction or unknown workload name."""


class BVHError(ReproError):
    """BVH construction or validation failure."""


class TraversalError(ReproError):
    """Inconsistent traversal trace or stack event stream."""


class DiagnosticError(ReproError):
    """A repro error annotated with where in the simulation it happened.

    ``cycle``/``sm_id``/``warp_id``/``lane``/``component`` are optional;
    whichever are set render into ``str(error)`` as a bracketed suffix,
    e.g. ``push into full SH region [cycle=812, sm=0, warp=3, lane=17,
    component=stack]``.
    """

    def __init__(
        self,
        message: str = "",
        *,
        cycle: Optional[int] = None,
        sm_id: Optional[int] = None,
        warp_id: Optional[int] = None,
        lane: Optional[int] = None,
        component: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.cycle = cycle
        self.sm_id = sm_id
        self.warp_id = warp_id
        self.lane = lane
        self.component = component

    def diagnostics(self) -> Dict[str, Any]:
        """The diagnostic fields that are set, as a plain dict."""
        pairs = (
            ("cycle", self.cycle),
            ("sm", self.sm_id),
            ("warp", self.warp_id),
            ("lane", self.lane),
            ("component", self.component),
        )
        return {key: value for key, value in pairs if value is not None}

    def evidence(self) -> Dict[str, Any]:
        """Further state a failure record keeps, which ``str`` leaves out."""
        return {}

    def __str__(self) -> str:
        details = self.diagnostics()
        if not details:
            return self.message
        rendered = ", ".join(f"{key}={value}" for key, value in details.items())
        return f"{self.message} [{rendered}]"

    def __reduce__(self):
        # Exceptions pickle as cls(*args) by default, which would drop the
        # keyword-only diagnostic fields on the trip back from a worker
        # process; rebuild through the state dict instead.
        return (_rebuild_error, (type(self), self.message, self.__dict__.copy()))


def _rebuild_error(cls, message, state):
    """Unpickle helper: restore a :class:`DiagnosticError` subclass."""
    error = cls(message)
    error.__dict__.update(state)
    return error


class StackError(DiagnosticError):
    """Traversal stack protocol violation (pop from empty, bad reload, ...)."""


class ConfigError(ReproError):
    """Invalid simulator configuration parameters."""


class SimulationError(DiagnosticError):
    """Timing simulation reached an inconsistent state."""


class GuardViolationError(SimulationError):
    """A simulation integrity guard tripped.

    Deterministic by construction — the same job fails the same way every
    time — so the runtime executor does not retry these (nor any other
    :class:`ReproError`) and records them as structured failures in the
    result store instead of caching a partial result.
    """


class InvariantViolationError(GuardViolationError):
    """An SMS conservation law or structural invariant was violated."""


class SimulationStallError(GuardViolationError):
    """The forward-progress watchdog detected a livelock or budget overrun.

    Carries the evidence needed to diagnose the stall: per-lane stack
    snapshots of the offending warp and the last N scheduler decisions
    leading up to it.
    """

    def __init__(
        self,
        message: str = "",
        *,
        cycle: Optional[int] = None,
        sm_id: Optional[int] = None,
        warp_id: Optional[int] = None,
        lane: Optional[int] = None,
        component: Optional[str] = None,
        stack_snapshots: Optional[Dict[int, Dict[str, Any]]] = None,
        decisions: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        super().__init__(
            message,
            cycle=cycle,
            sm_id=sm_id,
            warp_id=warp_id,
            lane=lane,
            component=component,
        )
        self.stack_snapshots = stack_snapshots or {}
        self.decisions = decisions or []

    def evidence(self) -> Dict[str, Any]:
        """The scheduler decisions and the per-lane stack snapshots."""
        return {"decisions": self.decisions, "stack_snapshots": self.stack_snapshots}


class ExperimentError(ReproError):
    """Experiment driver misuse (unknown figure id, missing results, ...)."""


class AblationError(ReproError):
    """Invalid ablation input (bad knob space, missing run directory, ...).

    Everything the design-space engine rejects — malformed knob-space
    files, unknown knob names, empty ranges, matrices whose importance
    corners were filtered out, reports read from a directory that holds
    none — raises this type, so the CLI turns it into a structured
    ``error:`` message with exit code 2 rather than a traceback.
    """


class JobExecutionError(ReproError):
    """A runtime job failed for good.

    A :class:`ReproError` fails its job on the first attempt; any other
    exception does after the executor's one re-run.
    """
