"""Deterministic fault injection: evidence that the guard layer fires.

Trusting an invariant checker requires evidence that it *fails* when
the simulation is wrong, not only that it passes when the simulation is
right.  This harness plants seeded faults in a live simulation through
seams the simulator already has, so the package itself never injects:

* the four stack faults (corrupted entries, dropped reloads, phantom
  entries, borrow-chain cycles) through :class:`ChaosStrategy`, whose
  slot-0 model is a :class:`ChaosStack` — the RT unit still wraps it in
  its :class:`~repro.guard.invariants.GuardedStack`, so the checker
  observes the fault exactly as it would observe a real bookkeeping bug;
* the two unit faults (a skewed counter, a stuck warp) through
  :class:`ChaosRTUnit`, which overrides one traversal iteration the way
  :class:`~repro.gpu.timeline.RecordingRTUnit` does.

Faults are deterministic: :meth:`FaultSpec.seeded` derives the trigger
point from a seed, :func:`chaos_traces` is synthetic and seeded, and the
simulator has no other randomness, so a detected fault reproduces
exactly.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.gpu.counters import Counters
from repro.gpu.hierarchy import sm_memory
from repro.gpu.rt_unit import RTUnit
from repro.gpu.warp import pack_warps
from repro.guard.config import GuardConfig
from repro.stack.sms import SmsStack
from repro.trace.events import NodeKind, RayKind, RayTrace, Step
from repro.traversal.stack_based import StackStrategy

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
        are sized so the fault lands mid-run on the
        :func:`chaos_traces` workload.
        """
        digest = hashlib.sha256(f"{kind}:{seed}".encode()).digest()
        if kind in UNIT_FAULTS:
            trigger = 16 + digest[0] % 48
        else:
            trigger = 200 + ((digest[0] << 8) | digest[1]) % 800
        return cls(kind=kind, trigger=trigger)


class ChaosStack:
    """Stack-model proxy that injects one fault, then behaves normally."""

    def __init__(self, inner, fault: FaultSpec) -> None:
        self.inner = inner
        self.fault = fault
        self.fired = False
        self._ops = 0

    def __getattr__(self, name: str):
        # warp_size, depth, contents, finish, reset: the model's own.
        return getattr(self.inner, name)

    @property
    def unwrapped(self):
        """The real stack model beneath the fault injector."""
        return self.inner

    def _due(self, kind: str) -> bool:
        return (
            self.fault.kind == kind
            and not self.fired
            and self._ops >= self.fault.trigger
        )

    def push(self, lane: int, value: int):
        self._ops += 1
        activity = self.inner.push(lane, value)
        if self._due("phantom_entry"):
            # A duplicated push: an entry the protocol never made.
            activity = activity.merge(
                self.inner.push(lane, value ^ _PHANTOM_MASK)
            )
            self.fired = True
        elif self._due("borrow_cycle"):
            self.fired = self._inject_borrow_cycle()
        return activity

    def pop(self, lane: int):
        self._ops += 1
        value, activity = self.inner.pop(lane)
        if self._due("corrupt_entry"):
            # A flipped bit pattern in the returned stack entry.
            value ^= _CORRUPT_MASK
            self.fired = True
        elif self._due("drop_reload"):
            # A reload that never arrived: the next entry vanishes.
            if self.inner.depth(lane) > 0:
                self.inner.pop(lane)
                self.fired = True
        elif self._due("borrow_cycle"):
            self.fired = self._inject_borrow_cycle()
        return value, activity

    def _inject_borrow_cycle(self) -> bool:
        """Link one lane's SH region into another lane's chain.

        Duplicate chain membership is exactly the ownership cycle the
        paper's Next-TID tracking must never create.
        """
        sms = self.inner
        if not isinstance(sms, SmsStack):
            return False
        owners = [lane for lane in range(sms.warp_size) if sms._chain[lane]]
        if len(owners) < 2:
            return False
        victim, donor = owners[0], owners[1]
        sms._chain[victim].append(sms._chain[donor][-1])
        return True


class ChaosStrategy(StackStrategy):
    """The default stack strategy with a stack fault on slot 0's model."""

    def __init__(self, fault: FaultSpec) -> None:
        self.fault = fault

    def make_unit_stacks(self, config: GPUConfig, sm_id: int = 0):
        stacks = super().make_unit_stacks(config, sm_id=sm_id)
        if self.fault.kind in STACK_FAULTS:
            stacks[0] = ChaosStack(stacks[0], self.fault)
        return stacks


class ChaosRTUnit(RTUnit):
    """RT unit that injects ``fault``; unit faults fire per iteration."""

    def __init__(self, *args, fault: FaultSpec, **kwargs) -> None:
        super().__init__(*args, strategy=ChaosStrategy(fault), **kwargs)
        self.fault = fault
        self.iterations = 0

    def _execute_iteration(self, warp, stack, start: int):
        self.iterations += 1
        if self.iterations >= self.fault.trigger:
            if self.fault.kind == "stuck_warp":
                # One pipeline cycle, no fetch, no stack update, cursors
                # frozen: noticing is the watchdog's job.
                return start + 1, 1
            if (
                self.fault.kind == "skew_counter"
                and self.iterations == self.fault.trigger
            ):
                # An accounting bug: traffic counted that no model emitted.
                self.counters.stack_global_stores += 3
        return super()._execute_iteration(warp, stack, start)


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
        trace = RayTrace(ray_id=ray, pixel=ray, kind=RayKind.PRIMARY)
        current = root
        resident: List[int] = []
        grown = 0
        while True:
            pushes = [
                root + 0x40 * (grown + child + 1)
                for child in range(min(2, depth - grown))
            ]
            grown += len(pushes)
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


def chaos_config() -> GPUConfig:
    """A small SMS configuration that keeps all three levels busy."""
    return GPUConfig(
        num_sms=1,
        rb_stack_entries=2,
        sh_stack_entries=2,
        skewed_bank_access=True,
        intra_warp_realloc=True,
    )


def run_with_fault(
    traces: List[RayTrace], fault: FaultSpec, stall_window: int = 48
) -> int:
    """Time ``traces`` on one guarded SM of :func:`chaos_config` with
    ``fault`` injected; returns the completion cycle.

    The SM is built as ``GPUSimulator.run_traces`` builds it, so a
    detection raises the guard error a real bug would raise there.
    """
    config = chaos_config()
    unit = ChaosRTUnit(
        config, sm_memory(config), Counters(),
        verify_pops=False, guard=GuardConfig(stall_window=stall_window),
        fault=fault,
    )
    return unit.run(pack_warps(traces, warp_size=config.warp_size))
