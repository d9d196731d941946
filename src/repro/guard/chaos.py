"""Deterministic fault injection — proves the guard layer detects bugs.

Trusting an invariant checker requires evidence that it *fails* when the
simulation is wrong, not only that it passes when the simulation is
right.  This module injects seeded faults into a live simulation —
corrupted stack entries, dropped reloads, phantom entries, skewed
counters, stuck warps, borrow-chain cycles — and
:func:`run_chaos_campaign` verifies that every injected fault class is
flagged by the invariant checker or the watchdog with a structured
error, while a fault-free guarded run stays bit-identical to the
unguarded baseline.

Faults are deterministic: a :class:`FaultSpec` derives its trigger point
from a seed, the workload is synthetic and seeded, and the simulator has
no other randomness, so a detected fault reproduces exactly.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigError, GuardViolationError
from repro.stack.sms import SmsStack
from repro.trace.events import NodeKind, RayKind, RayTrace, Step

#: Fault classes injected at the stack-model layer.
STACK_FAULTS = ("corrupt_entry", "drop_reload", "phantom_entry", "borrow_cycle")

#: Fault classes injected at the RT-unit layer.
UNIT_FAULTS = ("skew_counter", "stuck_warp")

#: Every injectable fault class.
FAULT_CLASSES = STACK_FAULTS + UNIT_FAULTS

#: XOR mask applied by ``corrupt_entry`` (flips address bits).
_CORRUPT_MASK = 0x5_A5A0

#: Value pushed by ``phantom_entry`` alongside the legitimate one.
_PHANTOM_MASK = 0x0DD0_F00D


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: what to inject and when.

    ``trigger`` counts stack operations (for stack faults) or warp
    iterations (for unit faults) before the fault fires; every fault
    fires exactly once, except ``stuck_warp`` which stays stuck.
    """

    kind: str
    trigger: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_CLASSES:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {', '.join(FAULT_CLASSES)}"
            )
        if self.trigger < 1:
            raise ConfigError("fault trigger must be >= 1")

    @classmethod
    def seeded(cls, kind: str, seed: int = 0) -> "FaultSpec":
        """Derive a trigger point deterministically from ``seed``.

        Stack faults count individual stack operations (hundreds per
        warp iteration), unit faults count warp iterations; both ranges
        are sized so the fault lands mid-campaign on the
        :func:`chaos_traces` workload.
        """
        digest = hashlib.sha256(f"{kind}:{seed}".encode()).digest()
        if kind in UNIT_FAULTS:
            trigger = 16 + digest[0] % 48
        else:
            trigger = 200 + ((digest[0] << 8) | digest[1]) % 800
        return cls(kind=kind, trigger=trigger, seed=seed)


class ChaosController:
    """Injects one fault into one RT unit's execution."""

    def __init__(self, fault: FaultSpec) -> None:
        self.fault = fault
        self.fired = False
        self._iterations = 0

    def wrap_stack(self, stack, slot: int):
        """Interpose the fault on slot 0's stack model (stack faults only)."""
        if self.fault.kind in STACK_FAULTS and slot == 0:
            return ChaosStack(stack, self.fault, self)
        return stack

    def tick(self, counters) -> None:
        """Called once per warp iteration; fires counter-level faults."""
        self._iterations += 1
        if (
            self.fault.kind == "skew_counter"
            and not self.fired
            and self._iterations >= self.fault.trigger
        ):
            # An accounting bug: traffic counted that no model emitted.
            # Violating counter ownership is this fault's entire point.
            counters.stack_global_stores += 3  # simlint: disable=SL203
            self.fired = True

    def stuck(self, warp) -> bool:
        """True when ``warp`` should stop making progress (stuck fault)."""
        if self.fault.kind != "stuck_warp":
            return False
        if self._iterations >= self.fault.trigger:
            self.fired = True
            return True
        return False


class ChaosStack:
    """Stack-model proxy that injects one fault, then behaves normally.

    Sits *inside* the :class:`~repro.guard.invariants.GuardedStack`
    wrapper, so the guard observes the faulty behavior exactly as it
    would observe a real bookkeeping bug.
    """

    def __init__(self, inner, fault: FaultSpec, controller: ChaosController) -> None:
        self.inner = inner
        self.fault = fault
        self.controller = controller
        self.warp_size = inner.warp_size
        self._ops = 0

    @property
    def unwrapped(self):
        """The real stack model beneath the fault injector."""
        return getattr(self.inner, "unwrapped", self.inner)

    def _due(self) -> bool:
        return not self.controller.fired and self._ops >= self.fault.trigger

    def push(self, lane: int, value: int):
        self._ops += 1
        activity = self.inner.push(lane, value)
        if self.fault.kind == "phantom_entry" and self._due():
            # A duplicated push: an entry the protocol never issued.
            activity = activity.merge(
                self.inner.push(lane, value ^ _PHANTOM_MASK)
            )
            self.controller.fired = True
        elif self.fault.kind == "borrow_cycle" and self._due():
            if self._inject_borrow_cycle():
                self.controller.fired = True
        return activity

    def pop(self, lane: int):
        self._ops += 1
        value, activity = self.inner.pop(lane)
        if self.fault.kind == "corrupt_entry" and self._due():
            # A flipped bit pattern in the returned stack entry.
            value ^= _CORRUPT_MASK
            self.controller.fired = True
        elif self.fault.kind == "drop_reload" and self._due():
            # A reload that never arrived: the next entry vanishes.
            if self.inner.depth(lane) > 0:
                self.inner.pop(lane)
                self.controller.fired = True
        elif self.fault.kind == "borrow_cycle" and self._due():
            if self._inject_borrow_cycle():
                self.controller.fired = True
        return value, activity

    def _inject_borrow_cycle(self) -> bool:
        """Link one lane's SH region into another lane's chain.

        Duplicate chain membership is exactly the ownership cycle the
        paper's Next-TID tracking must never create.
        """
        sms = self.unwrapped
        if not isinstance(sms, SmsStack):
            return False
        owners = [lane for lane in range(sms.warp_size) if sms._chain[lane]]
        if len(owners) < 2:
            return False
        victim, donor = owners[0], owners[1]
        sms._chain[victim].append(sms._chain[donor][-1])
        return True

    def depth(self, lane: int) -> int:
        return self.inner.depth(lane)

    def contents(self, lane: int):
        return self.inner.contents(lane)

    def finish(self, lane: int) -> None:
        self.inner.finish(lane)

    def reset(self) -> None:
        self.inner.reset()


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


@dataclass
class FaultOutcome:
    """How one injected fault class fared against the guard layer."""

    fault: FaultSpec
    detected: bool
    error_type: Optional[str] = None
    message: str = ""
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    @property
    def structured(self) -> bool:
        """The error named the cycle, warp and component, as required."""
        return {"cycle", "warp", "component"} <= set(self.diagnostics)


@dataclass
class ChaosReport:
    """Result of one fault-injection campaign."""

    outcomes: List[FaultOutcome]
    #: Fault-free guarded run produced bit-identical counters to the
    #: unguarded baseline.
    clean_identical: bool

    @property
    def all_detected(self) -> bool:
        """Every fault flagged with a fully structured error, and the
        guards themselves perturbed nothing."""
        return self.clean_identical and all(
            outcome.detected and outcome.structured for outcome in self.outcomes
        )

    def summary(self) -> str:
        """Human-readable campaign table."""
        lines = [
            f"{'fault':<16} {'trigger':>7}  {'detected by':<28} where",
        ]
        for outcome in self.outcomes:
            where = ", ".join(
                f"{key}={value}" for key, value in outcome.diagnostics.items()
            )
            lines.append(
                f"{outcome.fault.kind:<16} {outcome.fault.trigger:>7}  "
                f"{outcome.error_type or 'NOT DETECTED':<28} {where}"
            )
        lines.append(
            "clean guarded run bit-identical to unguarded: "
            + ("yes" if self.clean_identical else "NO")
        )
        lines.append(
            "verdict: " + ("all faults detected" if self.all_detected
                           else "GUARD GAP — see above")
        )
        return "\n".join(lines)


def chaos_traces(
    rays: int = 128, max_depth: int = 24, seed: int = 0
) -> List[RayTrace]:
    """A synthetic deep-stack workload that exercises all three levels.

    Each ray walks a DFS-shaped sawtooth: the stack grows to ``depth``
    pushing two children and popping one per step, then drains one pop
    per step.  Ops spread across every iteration (unlike a single
    push-everything root step), so seeded fault triggers land mid-drain,
    and small RB/SH configurations spill into shared and global memory,
    borrow, flush and reload — the state space the faults hide in.
    Every 8th ray uses the full ``max_depth`` so warp iteration counts
    are workload-independent lower-bounded.
    """
    rng = random.Random(seed)
    traces: List[RayTrace] = []
    base = 0x1000_0000
    for ray in range(rays):
        depth = (
            max_depth if ray % 8 == 0
            else rng.randint(max(2, max_depth // 2), max_depth)
        )
        root = base + 0x40000 * ray
        next_index = 0

        def fresh_address() -> int:
            nonlocal next_index
            next_index += 1
            return root + 0x40 * next_index

        trace = RayTrace(ray_id=ray, pixel=ray, kind=RayKind.PRIMARY)
        current = root
        resident: List[int] = []
        grown = 0
        while True:
            pushes: List[int] = []
            if grown < depth:
                for _ in range(min(2, depth - grown)):
                    pushes.append(fresh_address())
                    grown += 1
                resident.extend(pushes)
            popped = bool(resident)
            trace.steps.append(
                Step(
                    address=current,
                    size_bytes=64,
                    kind=NodeKind.INTERNAL if pushes else NodeKind.LEAF,
                    tests=max(1, len(pushes)),
                    pushes=pushes,
                    popped=popped,
                )
            )
            if not popped:
                break
            current = resident.pop()
        traces.append(trace)
    return traces


def default_chaos_config():
    """A small SMS configuration that keeps all three levels busy."""
    from repro.gpu.config import GPUConfig

    return GPUConfig(
        num_sms=1,
        rb_stack_entries=2,
        sh_stack_entries=2,
        skewed_bank_access=True,
        intra_warp_realloc=True,
    )


def run_chaos_campaign(
    kinds: Optional[Sequence[str]] = None,
    seed: int = 0,
    rays: int = 128,
    max_depth: int = 24,
    config=None,
    stall_window: int = 48,
) -> ChaosReport:
    """Inject every fault class and verify the guard layer catches it.

    Returns a :class:`ChaosReport`; ``report.all_detected`` is the
    pass/fail verdict the chaos CI job asserts.
    """
    from repro.gpu.simulator import GPUSimulator
    from repro.guard.config import GuardConfig

    kinds = tuple(kinds) if kinds else FAULT_CLASSES
    for kind in kinds:
        if kind not in FAULT_CLASSES:
            raise ConfigError(
                f"unknown fault kind {kind!r}; "
                f"choose from {', '.join(FAULT_CLASSES)}"
            )
    config = config or default_chaos_config()
    traces = chaos_traces(rays=rays, max_depth=max_depth, seed=seed)

    plain = GPUSimulator(config, verify_pops=False).run_traces(traces)
    clean_guard = GuardConfig(stall_window=stall_window)
    guarded = GPUSimulator(
        config, verify_pops=False, guard=clean_guard
    ).run_traces(traces)
    clean_identical = (
        plain.counters.as_dict() == guarded.counters.as_dict()
        and plain.per_sm_cycles == guarded.per_sm_cycles
    )

    outcomes: List[FaultOutcome] = []
    for kind in kinds:
        fault = FaultSpec.seeded(kind, seed)
        guard = GuardConfig(stall_window=stall_window, chaos=fault)
        try:
            GPUSimulator(config, verify_pops=False, guard=guard).run_traces(traces)
        except GuardViolationError as error:
            outcomes.append(FaultOutcome(
                fault=fault,
                detected=True,
                error_type=type(error).__name__,
                message=str(error),
                diagnostics=error.diagnostics(),
            ))
        else:
            outcomes.append(FaultOutcome(
                fault=fault, detected=False,
                message="fault escaped every guard",
            ))
    return ChaosReport(outcomes=outcomes, clean_identical=clean_identical)
