"""Warp state: up to 32 ray traces advancing in lockstep.

The RT unit processes a warp one *traversal iteration* at a time: every
active lane executes its next trace step together (node fetch, intersection
tests, stack update), mirroring how the paper's RT unit collects requests
"across all 32 threads" of the scheduled warp.  Lanes whose traces are
exhausted go inactive (their rays completed) and — under SMS reallocation —
donate their SH stacks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.trace.events import RayTrace


class Warp:
    """One warp's worth of traces plus per-lane progress cursors.

    A ``__slots__`` class (not a dataclass): the timing model touches
    warp state on every iteration of every lane, and attribute access
    plus construction showed up in profiles.  Constructor signature and
    semantics match the dataclass it replaced.
    """

    __slots__ = (
        "warp_id", "traces", "cursors", "ready_time", "stack_free", "entered",
        "_active",
    )

    def __init__(
        self,
        warp_id: int,
        traces: List[Optional[RayTrace]],
        cursors: Optional[List[int]] = None,
        ready_time: int = 0,
        stack_free: int = 0,
        entered: bool = False,
    ) -> None:
        self.warp_id = warp_id
        self.traces = traces
        self.cursors = cursors if cursors else [0] * len(traces)
        self.ready_time = ready_time
        #: When this warp's stack-manager chain from the previous iteration
        #: completes; the next iteration's stack phase serializes on it.
        self.stack_free = stack_free
        self.entered = entered
        # Memoized active_lanes() result; invalidated on cursor movement.
        self._active: Optional[List[int]] = None

    def __repr__(self) -> str:
        return (
            f"Warp(warp_id={self.warp_id!r}, traces={len(self.traces)} lanes, "
            f"ready_time={self.ready_time!r}, stack_free={self.stack_free!r})"
        )

    @property
    def lane_count(self) -> int:
        """Number of lanes (including inactive padding)."""
        return len(self.traces)

    def lane_active(self, lane: int) -> bool:
        """True while the lane still has trace steps to execute."""
        trace = self.traces[lane]
        return trace is not None and self.cursors[lane] < len(trace.steps)

    def active_lanes(self) -> List[int]:
        """Lanes with work remaining (treat the returned list as read-only).

        Memoized: the RT unit asks on every iteration but lane liveness
        only changes when a cursor moves, and the unit's advance loop
        maintains the memo directly (``retire_to``).
        """
        active = self._active
        if active is None:
            cursors = self.cursors
            active = [
                lane
                for lane, trace in enumerate(self.traces)
                if trace is not None and cursors[lane] < len(trace.steps)
            ]
            self._active = active
        return active

    def retire_to(self, active: List[int]) -> None:
        """Install the surviving-lane list after an advance sweep."""
        self._active = active

    def advance(self, lane: int) -> None:
        """Move the lane to its next step."""
        self.cursors[lane] += 1
        self._active = None

    @property
    def done(self) -> bool:
        """True when every lane has drained its trace."""
        return not self.active_lanes()

    @property
    def total_steps(self) -> int:
        """Total trace steps across lanes."""
        return sum(len(t.steps) for t in self.traces if t is not None)


def pack_warps(
    traces: Sequence[RayTrace], warp_size: int = 32
) -> List[Warp]:
    """Pack traces into warps in order, padding the final partial warp.

    Order matters: the workload generator emits waves (primaries, then
    shadow/bounce waves), so consecutive rays — and therefore warps — have
    the coherence structure of a real wavefront path tracer.
    """
    warps: List[Warp] = []
    for start in range(0, len(traces), warp_size):
        group: List[Optional[RayTrace]] = list(traces[start : start + warp_size])
        while len(group) < warp_size:
            group.append(None)
        warps.append(Warp(warp_id=len(warps), traces=group))
    return warps
