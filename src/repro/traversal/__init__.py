"""Pluggable traversal strategies (see docs/architecture.md section 11).

A strategy owns both simulator phases of one traversal architecture:
how rays walk the BVH (phase one, trace generation) and what per-lane
state the RT unit keeps while replaying them (phase two, timing).
The registry holds traversal schemes only; hardware points (RB-only,
SH tier, skewing, intra- or inter-warp reallocation) are
configurations, selected by the ``GPUConfig`` a job carries.
Built-ins:

============= =======================================================
``sms``       config-driven stack traversal (RB / RB+SH / full /
              inter-warp as the configuration selects) — the default,
              bit-identical to the pre-strategy simulator
``stackless`` escape-link traversal: no stack, no spills, restart-free
``reorder``   locality-sorted warp formation over the configured stack
============= =======================================================
"""

from repro.traversal.base import TraversalStrategy
from repro.traversal.registry import (
    available_strategies,
    register_strategy,
    resolve_strategy,
)
from repro.traversal.reorder import ReorderStrategy
from repro.traversal.stack_based import StackStrategy
from repro.traversal.stackless import EscapeTracer, StacklessState, StacklessStrategy

__all__ = [
    "TraversalStrategy",
    "StackStrategy",
    "StacklessStrategy",
    "StacklessState",
    "EscapeTracer",
    "ReorderStrategy",
    "available_strategies",
    "register_strategy",
    "resolve_strategy",
]
