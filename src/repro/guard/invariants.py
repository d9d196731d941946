"""Invariant checking for traversal stack models.

Two pieces:

* :class:`GuardedStack` wraps one warp slot's stack model and shadows
  every logical operation with an unbounded reference stack.  It enforces
  the SMS conservation laws **as the operations happen** (phantom pops,
  lost entries, LIFO-order corruption) and, on every drain step, the
  structural and accounting laws (entry conservation across RB/SH/global,
  ``borrow <= max_borrows``, ``flush <= max_flushes`` before the forced
  path, value-exact LIFO recovery under borrow/flush rotation).
* :class:`InvariantChecker` owns the guarded stacks of one RT unit plus
  the counter-coherence law: the shared/global stack requests priced into
  :class:`~repro.gpu.counters.Counters` must exactly equal the requests
  the stack models emitted.

Guards are pure observers: they never mutate the wrapped model, generate
no memory operations and touch no counters, so a guarded run is
bit-identical to an unguarded one (asserted in ``tests/guard``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import InvariantViolationError, StackError
from repro.stack.ops import MemSpace, OpKind, StackActivity
from repro.stack.sms import SmsStack


@dataclass
class GuardContext:
    """Where the simulation currently is (shared mutable context).

    The RT unit updates this once per warp iteration so that violations
    raised from deep inside a stack operation can still name the cycle
    and warp they happened in.
    """

    sm_id: int = 0
    cycle: int = 0
    warp_id: Optional[int] = None


class GuardedStack:
    """Integrity-checking proxy around one warp slot's stack model.

    Implements the :class:`~repro.stack.base.StackModel` protocol by
    delegation; every push/pop is mirrored into a per-lane shadow stack
    and cross-checked immediately.  Accumulated accounting (entries
    pushed/popped/discarded, shared/global requests observed) feeds the
    drain-step verification in :meth:`verify`.
    """

    def __init__(
        self,
        inner,
        context: GuardContext,
        component: str = "stack",
    ) -> None:
        self.inner = inner
        self.ctx = context
        self.component = component
        self.warp_size = inner.warp_size
        #: Structural-only mode: the wrapped model declares it keeps no
        #: traversal stack (``has_stack = False``, e.g. the stackless
        #: strategy's lane state).  Conservation laws are vacuous there;
        #: what the guard enforces instead is that no stack operation and
        #: no stack traffic exist at all.
        self.structural_only = not getattr(inner, "has_stack", True)
        self._shadow: List[List[int]] = [[] for _ in range(self.warp_size)]
        # Logical-entry accounting (conservation law).
        self.pushed = 0
        self.popped = 0
        self.discarded = 0
        # Memory requests observed in the activities the model returned.
        self.shared_loads = 0
        self.shared_stores = 0
        self.global_loads = 0
        self.global_stores = 0
        # Entries abandoned while resident in SH / global at finish().
        self.discarded_shared = 0
        self.discarded_global = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def unwrapped(self):
        """The innermost real stack model (through any wrapper)."""
        return getattr(self.inner, "unwrapped", self.inner)

    @property
    def _sms(self) -> Optional[SmsStack]:
        """The wrapped model as an SmsStack, when the SMS laws apply.

        Inter-warp slot views share one model across slots, so their
        SMS-specific occupancy laws are not per-slot; only the generic
        checks apply to them.
        """
        model = self.unwrapped
        return model if isinstance(model, SmsStack) else None

    def _violation(self, message: str, lane: Optional[int] = None) -> None:
        raise InvariantViolationError(
            message,
            cycle=self.ctx.cycle,
            sm_id=self.ctx.sm_id,
            warp_id=self.ctx.warp_id,
            lane=lane,
            component=self.component,
        )

    def _tally(self, activity: StackActivity) -> None:
        for op in activity.ops:
            if op.space is MemSpace.SHARED:
                if op.kind is OpKind.LOAD:
                    self.shared_loads += 1
                else:
                    self.shared_stores += 1
            else:
                if op.kind is OpKind.LOAD:
                    self.global_loads += 1
                else:
                    self.global_stores += 1

    def _check_depth(self, lane: int) -> None:
        """The conservation law, per lane: model depth must equal
        pushed - popped - discarded (the shadow stack's length)."""
        depth = self.inner.depth(lane)
        expected = len(self._shadow[lane])
        if depth != expected:
            self._violation(
                f"entry conservation violated: model holds {depth} "
                f"entries but pushed - popped - discarded = {expected}",
                lane,
            )

    # ------------------------------------------------------------------
    # StackModel protocol
    # ------------------------------------------------------------------

    def push(self, lane: int, value: int) -> StackActivity:
        if self.structural_only:
            self._violation(
                f"stack push ({value:#x}) issued under a stackless "
                f"strategy — no traversal stack exists",
                lane,
            )
        activity = self.inner.push(lane, value)
        self._shadow[lane].append(value)
        self.pushed += 1
        self._tally(activity)
        self._check_depth(lane)
        return activity

    def pop(self, lane: int):
        if self.structural_only:
            self._violation(
                "stack pop issued under a stackless strategy — no "
                "traversal stack exists",
                lane,
            )
        shadow = self._shadow[lane]
        try:
            value, activity = self.inner.pop(lane)
        except StackError as error:
            if shadow:
                self._violation(
                    f"entries lost: model reports empty but "
                    f"{len(shadow)} logical entries remain",
                    lane,
                )
            raise error
        if not shadow:
            self._violation(
                f"phantom pop: model returned {value:#x} from a "
                f"logically empty stack",
                lane,
            )
        expected = shadow.pop()
        self.popped += 1
        self._tally(activity)
        if value != expected:
            self._violation(
                f"LIFO order violated: popped {value:#x}, expected "
                f"{expected:#x}",
                lane,
            )
        self._check_depth(lane)
        return value, activity

    def depth(self, lane: int) -> int:
        return self.inner.depth(lane)

    def contents(self, lane: int) -> List[int]:
        return self.inner.contents(lane)

    def finish(self, lane: int) -> None:
        self._account_abandoned(lane)
        self.inner.finish(lane)
        self._shadow[lane].clear()

    def reset(self) -> None:
        for lane in range(self.warp_size):
            self._account_abandoned(lane)
            self._shadow[lane].clear()
        self.inner.reset()

    def _account_abandoned(self, lane: int) -> None:
        """Entries discarded with the lane keep the conservation and
        occupancy balances closed (an any-hit ray abandons its stack)."""
        self.discarded += len(self._shadow[lane])
        sms = self._sms
        if sms is not None:
            self.discarded_shared += sms.sh_occupancy(lane)
            self.discarded_global += sms.global_occupancy(lane)

    # ------------------------------------------------------------------
    # drain-step verification
    # ------------------------------------------------------------------

    def verify(self, forced_flushes: int = 0) -> None:
        """Assert every per-stack law; called after each warp iteration.

        ``forced_flushes`` is how many forced (over-budget) flushes the
        RT unit has recorded so far — a region whose flush count exceeds
        ``max_flushes`` without a recorded forced flush means the
        graceful-degradation path was bypassed silently.

        Structural-only mode (no-stack strategies) replaces the
        conservation laws with their degenerate form: no operations, no
        traffic, every lane permanently at depth zero.
        """
        if self.structural_only:
            if self.pushed or self.popped or self.discarded:
                self._violation(
                    f"stackless strategy accumulated stack operations "
                    f"(pushed={self.pushed}, popped={self.popped}, "
                    f"discarded={self.discarded})"
                )
            traffic = (
                self.shared_loads + self.shared_stores
                + self.global_loads + self.global_stores
            )
            if traffic:
                self._violation(
                    f"stackless strategy emitted {traffic} stack memory "
                    f"requests; spill traffic must be zero"
                )
            for lane in range(self.warp_size):
                if self.inner.depth(lane) != 0:
                    self._violation(
                        f"stackless lane reports depth "
                        f"{self.inner.depth(lane)}, expected 0",
                        lane,
                    )
            return
        for lane in range(self.warp_size):
            shadow = self._shadow[lane]
            if self.inner.depth(lane) != len(shadow):
                self._check_depth(lane)  # raises with the full message
            actual = self.inner.contents(lane)
            if actual != shadow:
                self._violation(
                    f"stack contents diverged from logical LIFO "
                    f"order: model {actual}, expected {shadow}",
                    lane,
                )
        sms = self._sms
        if sms is None:
            return
        # Borrow bound: at most max_borrows concurrent borrowed regions.
        for lane in range(sms.warp_size):
            borrows = sms.chain_length(lane) - 1
            if borrows > sms.max_borrows:
                self._violation(
                    f"borrow bound violated: {borrows} concurrent "
                    f"borrows > max_borrows={sms.max_borrows}",
                    lane,
                )
        # Flush bound: beyond max_flushes only via the (counted) forced path.
        for lane in range(sms.warp_size):
            for region in sms._chain[lane]:
                if region.flush_count > sms.max_flushes and forced_flushes == 0:
                    self._violation(
                        f"flush bound violated: region of lane "
                        f"{region.owner} flushed {region.flush_count} "
                        f"times > max_flushes={sms.max_flushes} with no "
                        f"forced flush recorded",
                        lane,
                    )
        # Structural invariants (chain membership, ownership, occupancy).
        try:
            sms.check_invariants()
        except StackError as error:
            self._violation(f"structural invariant violated: {error}")
        # Occupancy balance: every spill stored once, every reload loaded
        # once, so (stores - loads) must equal what is still resident
        # plus what was abandoned at finish.
        sh_resident = sum(sms.sh_occupancy(lane) for lane in range(sms.warp_size))
        sh_balance = self.shared_stores - self.shared_loads
        if sh_balance != sh_resident + self.discarded_shared:
            self._violation(
                f"shared-memory balance violated: stores - loads = "
                f"{sh_balance} but resident + discarded = "
                f"{sh_resident + self.discarded_shared}"
            )
        global_resident = sum(
            sms.global_occupancy(lane) for lane in range(sms.warp_size)
        )
        global_balance = self.global_stores - self.global_loads
        if global_balance != global_resident + self.discarded_global:
            self._violation(
                f"global-memory balance violated: stores - loads = "
                f"{global_balance} but resident + discarded = "
                f"{global_resident + self.discarded_global}"
            )


class InvariantChecker:
    """All integrity checks of one RT unit.

    Owns the unit's :class:`GuardedStack` wrappers and the shared
    :class:`GuardContext`, and verifies the cross-stack counter-coherence
    law against the unit's :class:`~repro.gpu.counters.Counters` (as a
    delta from construction time, since the counter object is shared by
    every SM of the simulated GPU).
    """

    def __init__(self, counters, sm_id: int = 0) -> None:
        self.counters = counters
        self.sm_id = sm_id
        self.ctx = GuardContext(sm_id=sm_id)
        self.stacks: List[GuardedStack] = []
        self._base = self._snapshot()

    def _snapshot(self):
        counters = self.counters
        return (
            counters.stack_shared_loads,
            counters.stack_shared_stores,
            counters.stack_global_loads,
            counters.stack_global_stores,
            counters.forced_flushes,
        )

    def wrap(self, stack, slot: int) -> GuardedStack:
        """Wrap one warp slot's stack model; returns the guarded proxy."""
        guarded = GuardedStack(stack, self.ctx, component=f"stack[slot={slot}]")
        self.stacks.append(guarded)
        return guarded

    def begin_iteration(self, cycle: int, warp_id: Optional[int]) -> None:
        """Stamp the context before a warp iteration replays its ops."""
        self.ctx.cycle = cycle
        self.ctx.warp_id = warp_id

    def verify(self, cycle: int, warp_id: Optional[int], slot: int) -> None:
        """The drain-step check: one warp iteration just completed."""
        self.ctx.cycle = cycle
        self.ctx.warp_id = warp_id
        base = self._base
        forced = self.counters.forced_flushes - base[4]
        self.stacks[slot].verify(forced_flushes=forced)
        observed = (
            sum(g.shared_loads for g in self.stacks),
            sum(g.shared_stores for g in self.stacks),
            sum(g.global_loads for g in self.stacks),
            sum(g.global_stores for g in self.stacks),
        )
        counted = (
            self.counters.stack_shared_loads - base[0],
            self.counters.stack_shared_stores - base[1],
            self.counters.stack_global_loads - base[2],
            self.counters.stack_global_stores - base[3],
        )
        if observed != counted:
            names = ("shared loads", "shared stores",
                     "global loads", "global stores")
            details = ", ".join(
                f"{name}: counted {c} vs emitted {o}"
                for name, o, c in zip(names, observed, counted)
                if o != c
            )
            raise InvariantViolationError(
                f"counter coherence violated — stack traffic counters "
                f"disagree with the requests the stack models emitted "
                f"({details})",
                cycle=cycle,
                sm_id=self.sm_id,
                warp_id=warp_id,
                component="counters",
            )
