"""Trace event records.

A :class:`RayTrace` is the complete record of one ray's traversal: an
ordered list of :class:`Step` objects.  Each step corresponds to one node
visit by the RT unit and carries the stack activity that visit caused:

* ``pushes`` — child node addresses pushed (far-to-near, so the nearest
  pushed sibling pops first);
* ``popped`` — whether the *next* node was obtained by popping the stack
  (``False`` when traversal continued directly into the nearest child, or
  when this is the final step).

Replaying the steps against any stack model therefore reconstructs the
exact push/pop sequence of the paper's Fig. 3 walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence


class RayKind(Enum):
    """What generated the ray (affects warp coherence, not traversal)."""

    PRIMARY = "primary"
    SHADOW = "shadow"
    BOUNCE = "bounce"


class NodeKind(Enum):
    """What the RT unit does at this node."""

    INTERNAL = "internal"  # ray-box tests against children
    LEAF = "leaf"          # ray-triangle tests


@dataclass
class Step:
    """One node visit in a ray's traversal."""

    __slots__ = ("address", "size_bytes", "kind", "tests", "pushes", "popped")

    address: int
    size_bytes: int
    kind: NodeKind
    tests: int           # number of box or triangle tests performed
    pushes: List[int]    # node addresses pushed onto the traversal stack
    popped: bool         # next node came from a stack pop


class RayTrace:
    """The full traversal record of one ray.

    A plain ``__slots__`` class rather than a dataclass: workloads hold
    hundreds of thousands of these and ``dataclass(slots=True)`` needs
    Python 3.10 while the package supports 3.9.  The constructor and
    equality semantics match the dataclass it replaced.
    """

    #: ``_vector_cache`` holds derived, recomputable artifacts of the
    #: vector timing backend (:mod:`repro.gpu.vector`): the per-warp
    #: replay plans.  It is excluded from pickling and from equality —
    #: two traces with equal event streams are equal whether or not
    #: either has been vector-planned.
    __slots__ = (
        "ray_id", "pixel", "kind", "steps", "hit_prim", "hit_t",
        "_vector_cache",
    )

    #: Slots that carry trace *content* (pickled, compared, repr'd);
    #: everything else is a derived cache rebuilt on demand.
    _STATE_SLOTS = ("ray_id", "pixel", "kind", "steps", "hit_prim", "hit_t")

    def __init__(
        self,
        ray_id: int,
        pixel: int,
        kind: RayKind,
        steps: List[Step] = None,
        hit_prim: int = -1,
        hit_t: float = float("inf"),
    ) -> None:
        self.ray_id = ray_id
        self.pixel = pixel
        self.kind = kind
        self.steps = [] if steps is None else steps
        self.hit_prim = hit_prim
        self.hit_t = hit_t

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._STATE_SLOTS}

    def __setstate__(self, state: dict) -> None:
        for name in self._STATE_SLOTS:
            setattr(self, name, state[name])

    def __repr__(self) -> str:
        return (
            f"RayTrace(ray_id={self.ray_id!r}, pixel={self.pixel!r}, "
            f"kind={self.kind!r}, steps={self.steps!r}, "
            f"hit_prim={self.hit_prim!r}, hit_t={self.hit_t!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RayTrace):
            return NotImplemented
        return (
            self.ray_id == other.ray_id
            and self.pixel == other.pixel
            and self.kind == other.kind
            and self.steps == other.steps
            and self.hit_prim == other.hit_prim
            and self.hit_t == other.hit_t
        )

    @property
    def hit(self) -> bool:
        """True when the ray found a closest hit."""
        return self.hit_prim >= 0

    @property
    def step_count(self) -> int:
        """Number of node visits."""
        return len(self.steps)

    def stack_depth_profile(self) -> List[int]:
        """Stack depth recorded after every push and pop (paper Fig. 5).

        The profile starts from an empty stack; each push appends
        ``depth + 1`` and each pop appends ``depth - 1``.
        """
        profile: List[int] = []
        depth = 0
        for step in self.steps:
            for _ in step.pushes:
                depth += 1
                profile.append(depth)
            if step.popped:
                depth -= 1
                profile.append(depth)
        return profile

    def max_stack_depth(self) -> int:
        """Peak stack depth over the traversal."""
        peak = 0
        depth = 0
        for step in self.steps:
            depth += len(step.pushes)
            peak = max(peak, depth)
            if step.popped:
                depth -= 1
        return peak

    def validate(self) -> None:
        """Check push/pop balance (depth never negative).

        Raises:
            repro.errors.TraversalError: on an inconsistent event stream.
        """
        from repro.errors import TraversalError

        depth = 0
        for i, step in enumerate(self.steps):
            depth += len(step.pushes)
            if step.popped:
                depth -= 1
            if depth < 0:
                raise TraversalError(
                    f"ray {self.ray_id}: stack depth negative at step {i}"
                )


def total_steps(traces: Sequence[RayTrace]) -> int:
    """Total node visits across a collection of traces."""
    return sum(trace.step_count for trace in traces)
