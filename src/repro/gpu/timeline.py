"""Execution timeline capture and Chrome-trace export.

Wraps an :class:`~repro.gpu.rt_unit.RTUnit` to record every warp
iteration as a timed event (which warp, when it started, how long the
fetch/stack phases took, what traffic it generated).  Timelines export to
the Chrome trace-event JSON format, so ``chrome://tracing`` / Perfetto
render the warp interleaving directly — handy for seeing GTO scheduling,
latency hiding and stack-manager serialization at a glance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.gpu.config import GPUConfig
from repro.gpu.counters import Counters
from repro.gpu.hierarchy import sm_memory
from repro.gpu.rt_unit import RTUnit
from repro.gpu.warp import Warp, pack_warps
from repro.trace.events import RayTrace


@dataclass
class TimelineEvent:
    """One warp iteration on the timeline."""

    warp_id: int
    sm_id: int
    start: int
    end: int
    active_lanes: int
    stack_ops: int

    @property
    def duration(self) -> int:
        """Event length in cycles."""
        return max(1, self.end - self.start)


@dataclass
class Timeline:
    """All recorded warp iterations of one simulation."""

    events: List[TimelineEvent] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        """Completion time of the last event."""
        return max((event.end for event in self.events), default=0)

    def events_for_warp(self, warp_id: int) -> List[TimelineEvent]:
        """Events of one warp, in time order."""
        return sorted(
            (e for e in self.events if e.warp_id == warp_id),
            key=lambda e: e.start,
        )

    def concurrency_at(self, cycle: int) -> int:
        """How many warp iterations span the given cycle."""
        return sum(1 for e in self.events if e.start <= cycle < e.end)

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        trace_events = []
        for event in self.events:
            trace_events.append(
                {
                    "name": f"warp {event.warp_id}",
                    "cat": "traversal",
                    "ph": "X",
                    "ts": event.start,
                    "dur": event.duration,
                    "pid": event.sm_id,
                    "tid": event.warp_id,
                    "args": {
                        "active_lanes": event.active_lanes,
                        "stack_ops": event.stack_ops,
                    },
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ns"}

    def save(self, path) -> Path:
        """Write the Chrome trace JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome_trace()))
        return path


class RecordingRTUnit(RTUnit):
    """RT unit that appends every iteration to a :class:`Timeline`."""

    def __init__(self, *args, timeline: Timeline, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.timeline = timeline

    def _execute_iteration(self, warp: Warp, stack, start: int):
        counters_before = (
            self.counters.stack_shared_ops + self.counters.stack_global_ops
        )
        active = len(warp.active_lanes())
        end, issue_cycles = super()._execute_iteration(warp, stack, start)
        counters_after = (
            self.counters.stack_shared_ops + self.counters.stack_global_ops
        )
        self.timeline.events.append(
            TimelineEvent(
                warp_id=warp.warp_id,
                sm_id=self.sm_id,
                start=start,
                end=end,
                active_lanes=active,
                stack_ops=counters_after - counters_before,
            )
        )
        return end, issue_cycles


def record_timeline(
    traces: Sequence[RayTrace],
    config: Optional[GPUConfig] = None,
    sm_id: int = 0,
) -> Timeline:
    """Run traces through one recorded RT unit and return its timeline.

    Uses a single SM (timelines of independent SMs just overlay), with the
    same memory configuration the plain simulator would give it.
    """
    config = config or GPUConfig()
    timeline = Timeline()
    counters = Counters()
    unit = RecordingRTUnit(
        config, sm_memory(config), counters, sm_id=sm_id, timeline=timeline
    )
    unit.run(pack_warps(traces, warp_size=config.warp_size))
    return timeline
