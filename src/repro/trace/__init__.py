"""Functional ray traversal producing stack-event traces.

The reproduction runs in two phases (DESIGN.md section 5).  This package is
phase one: a deterministic path tracer walks each ray through the wide BVH
with a depth-first traversal and records every node visit, stack push and
stack pop.  The logical event stream is the same for every stack
architecture; the timing phase (``repro.gpu``) replays it against a
particular stack design to see where entries physically live and what
memory traffic that causes.
"""

from repro.trace.events import RayKind, Step, RayTrace
from repro.trace.rng import DeterministicRng
from repro.trace.tracer import Tracer
from repro.trace.path import PathTracerWorkload, generate_workload
from repro.trace.depth import DepthStats, depth_statistics, depth_histogram

__all__ = [
    "RayKind",
    "Step",
    "RayTrace",
    "DeterministicRng",
    "Tracer",
    "PathTracerWorkload",
    "generate_workload",
    "DepthStats",
    "depth_statistics",
    "depth_histogram",
]
