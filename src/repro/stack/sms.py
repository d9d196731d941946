"""SMS: the paper's two-level hierarchical traversal stack.

Architecture (paper sections IV and VI):

* the **RB stack** (primary) holds the newest entries in the ray buffer —
  register-class storage, no memory traffic;
* the **SH stack** (secondary) is a per-lane circular queue in shared
  memory, tracked by Top/Bottom fields; RB overflow spills the oldest RB
  entry to the SH top (one shared store), pops eagerly reload the SH top
  into the RB bottom (one shared load);
* **global memory** (tertiary) absorbs SH overflow: a push into two full
  stacks issues shared load -> global store -> shared store; a pop with
  global-resident entries refills the SH bottom with global load ->
  shared store.

Optimizations:

* **skewed bank access** — each lane's circular queue starts at
  ``base = (TID / k) mod N`` (``repro.stack.skew``), spreading first
  touches across shared-memory banks;
* **dynamic intra-warp reallocation** — a lane that exhausts its SH region
  borrows the idle region of a finished lane (up to ``max_borrows``
  concurrent borrows, chained oldest-to-newest).  When nothing is
  borrowable, the *bottom* region of the chain is flushed wholesale to
  global memory and rotated to the top (up to ``max_flushes`` consecutive
  flushes per allocated region); beyond that the model degrades gracefully
  to per-entry global spills.

Logical LIFO order is preserved across all three levels and every
reallocation path; the property tests verify pop-equivalence with the
unbounded reference stack under arbitrary operation sequences.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.errors import StackError
from repro.stack.base import StackModel
from repro.stack.layout import SharedStackLayout
from repro.stack.ops import (
    EMPTY_ACTIVITY,
    MemoryOp,
    MemSpace,
    OpKind,
    StackActivity,
    no_activity,
)
from repro.stack.skew import base_entry_index
from repro.stack.spill import SpillRegion

#: Base of the thread-local SH-overflow spill region in global memory.
SPILL_BASE_ADDRESS = 0x9000_0000


class _Region:
    """One lane-sized circular queue in shared memory.

    Entries live at positions ``bottom .. top`` (circular).  ``push_top``
    and ``pop_top`` operate at the newest end (RB-facing), ``spill_bottom``
    and ``refill_bottom`` at the oldest end (global-memory-facing).  When
    the region empties, both pointers reset to the owner's (possibly
    skewed) base entry, matching the paper's field initialization.
    """

    __slots__ = ("owner", "capacity", "base_entry", "top", "bottom",
                 "count", "values", "flush_count")

    def __init__(self, owner: int, capacity: int, base_entry: int) -> None:
        self.owner = owner
        self.capacity = capacity
        self.base_entry = base_entry
        self.top = base_entry
        self.bottom = base_entry
        self.count = 0
        self.values: Deque[int] = deque()
        self.flush_count = 0

    @property
    def is_full(self) -> bool:
        return self.count == self.capacity

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    def clear(self) -> None:
        self.top = self.base_entry
        self.bottom = self.base_entry
        self.count = 0
        self.values.clear()
        self.flush_count = 0

    def push_top(self, value: int) -> int:
        """Store at the newest end; returns the entry index written."""
        if self.is_full:
            raise StackError("push into full SH region")
        if self.count > 0:
            self.top = (self.top + 1) % self.capacity
        self.count += 1
        self.values.append(value)
        return self.top

    def pop_top(self) -> "tuple[int, int]":
        """Read and remove the newest entry; returns (value, entry index)."""
        if self.is_empty:
            raise StackError("pop from empty SH region")
        entry = self.top
        value = self.values.pop()
        self.count -= 1
        if self.count == 0:
            self.top = self.base_entry
            self.bottom = self.base_entry
        else:
            self.top = (self.top - 1) % self.capacity
        return value, entry

    def spill_bottom(self) -> "tuple[int, int]":
        """Read and remove the oldest entry; returns (value, entry index)."""
        if self.is_empty:
            raise StackError("spill from empty SH region")
        entry = self.bottom
        value = self.values.popleft()
        self.count -= 1
        if self.count == 0:
            self.top = self.base_entry
            self.bottom = self.base_entry
        else:
            self.bottom = (self.bottom + 1) % self.capacity
        return value, entry

    def refill_bottom(self, value: int) -> int:
        """Store below the oldest entry; returns the entry index written."""
        if self.is_full:
            raise StackError("refill into full SH region")
        if self.count > 0:
            self.bottom = (self.bottom - 1) % self.capacity
        self.count += 1
        self.values.appendleft(value)
        return self.bottom


class SmsStack(StackModel):
    """The SMS hierarchical stack (RB + SH + global)."""

    #: Slot-invariant by construction: the SH layout base is a bank-row
    #: multiple per slot and spills shift by whole warp windows, so the
    #: vector backend may replay a canonical slot-0 instance.
    vector_replayable = True

    def __init__(
        self,
        rb_entries: int = 8,
        sh_entries: int = 8,
        warp_size: int = 32,
        skewed: bool = False,
        realloc: bool = False,
        max_borrows: int = 4,
        max_flushes: int = 3,
        layout: Optional[SharedStackLayout] = None,
        spill_base: int = SPILL_BASE_ADDRESS,
        warp_index: int = 0,
    ) -> None:
        super().__init__(warp_size)
        if rb_entries < 1:
            raise StackError("RB stack needs at least one entry")
        if sh_entries < 1:
            raise StackError("SH stack needs at least one entry")
        self.rb_entries = rb_entries
        self.sh_entries = sh_entries
        self.skewed = skewed
        self.realloc = realloc
        self.max_borrows = max_borrows
        self.max_flushes = max_flushes
        self.warp_index = warp_index
        self.layout = layout or SharedStackLayout(
            entries=sh_entries, warp_size=warp_size
        )
        self._spill_region = SpillRegion(
            warp_index, warp_size=warp_size, base_address=spill_base
        )
        # Statistics exposed to the timing model / experiments.
        self.borrow_count = 0
        self.flush_count = 0
        self.forced_flush_count = 0
        self.reset()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def reset(self) -> None:
        self._rb: List[List[int]] = [[] for _ in range(self.warp_size)]
        self._spilled: List[List[int]] = [[] for _ in range(self.warp_size)]
        self._own: List[_Region] = [
            _Region(
                owner=lane,
                capacity=self.sh_entries,
                base_entry=base_entry_index(
                    lane % 32, self.sh_entries, skewed=self.skewed
                ),
            )
            for lane in range(self.warp_size)
        ]
        # Chains are ordered oldest (bottom) -> newest (top).
        self._chain: List[List[_Region]] = [[self._own[lane]] for lane in range(self.warp_size)]
        self._idle: List[bool] = [False] * self.warp_size
        self._finished: List[bool] = [False] * self.warp_size
        # Which lane currently holds lane i's own region (None = free).
        self._borrowed_by: List[Optional[int]] = list(range(self.warp_size))

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------

    def _shared_address(self, region: _Region, entry: int) -> int:
        return self.layout.entry_address(region.owner, entry)

    def _spill_address(self, lane: int, index: int) -> int:
        return self._spill_region.address(lane, index)

    def _chain_walk_cycles(self, lane: int) -> int:
        """Latency of walking Next TID links to find the top stack."""
        if not self.realloc:
            return 0
        return max(0, len(self._chain[lane]) - 1)

    # ------------------------------------------------------------------
    # chain management (reallocation)
    # ------------------------------------------------------------------

    def _sh_count(self, lane: int) -> int:
        return sum(region.count for region in self._chain[lane])

    def _top_nonempty_region(self, lane: int) -> Optional[_Region]:
        for region in reversed(self._chain[lane]):
            if not region.is_empty:
                return region
        return None

    def _release_empty_borrowed(self, lane: int) -> None:
        """Return empty borrowed regions to their owners' idle pools.

        A released region becomes *borrowable* (idle) only if its owner
        has finished; an owner made regionless by an inter-warp reset is
        active and reclaims the region itself on its next overflow.
        """
        chain = self._chain[lane]
        kept: List[_Region] = []
        for region in chain:
            if region.is_empty and region.owner != lane:
                region.clear()
                self._borrowed_by[region.owner] = None
                self._idle[region.owner] = self._finished[region.owner]
            else:
                kept.append(region)
        self._chain[lane] = kept

    def _reclaim_or_borrow(self, lane: int) -> Optional[_Region]:
        """Give a chainless lane an SH region: its own if free, else borrow."""
        if self._borrowed_by[lane] is None:
            region = self._own[lane]
            region.clear()
            self._borrowed_by[lane] = lane
            self._idle[lane] = False
            self._chain[lane].append(region)
            return region
        return self._try_borrow(lane)

    def _try_borrow(self, lane: int) -> Optional[_Region]:
        """Borrow an idle finished lane's region, if policy allows."""
        if not self.realloc:
            return None
        if len(self._chain[lane]) - 1 >= self.max_borrows:
            return None
        for other in range(self.warp_size):
            if other != lane and self._idle[other]:
                self._idle[other] = False
                self._borrowed_by[other] = lane
                region = self._own[other]
                region.clear()
                self._chain[lane].append(region)
                self.borrow_count += 1
                return region
        return None

    # ------------------------------------------------------------------
    # stack protocol
    # ------------------------------------------------------------------

    def push(self, lane: int, value: int) -> StackActivity:
        self._check_lane(lane)
        if self._finished[lane]:
            raise StackError(
                f"lane {lane} has finished; reset() the warp before reuse"
            )
        rb = self._rb[lane]
        activity = EMPTY_ACTIVITY
        if len(rb) == self.rb_entries:
            oldest = rb.pop(0)
            activity = self._spill_to_sh(lane, oldest)
        rb.append(value)
        return activity

    def _spill_to_sh(self, lane: int, value: int) -> StackActivity:
        """Move the oldest RB entry into the SH hierarchy."""
        activity = no_activity()
        chain = self._chain[lane]
        if not chain:
            # A lane left regionless (its own region is on loan after an
            # inter-warp reset): reclaim or borrow; failing both, spill
            # straight to global memory — still LIFO-correct, since any
            # later-acquired SH region only ever holds newer entries.
            if self._reclaim_or_borrow(lane) is None:
                spill = self._spilled[lane]
                activity.ops.append(
                    MemoryOp(
                        space=MemSpace.GLOBAL,
                        kind=OpKind.STORE,
                        address=self._spill_address(lane, len(spill)),
                    )
                )
                spill.append(value)
                return activity
            chain = self._chain[lane]
        top_region = chain[-1]
        if top_region.is_full:
            borrowed = self._try_borrow(lane)
            if borrowed is not None:
                top_region = borrowed
            elif self.realloc:
                # No stack to borrow: flush the bottom region wholesale to
                # global memory and rotate it to the top (paper VI-B).  The
                # paper bounds this at max_flushes per allocated region and
                # shows the bound is never hit; if a workload exceeds it we
                # flush anyway (counting it) rather than deadlock, since a
                # per-entry spill from a multi-region chain would violate
                # LIFO order — the very reason the paper flushes.
                if chain[0].flush_count >= self.max_flushes:
                    self.forced_flush_count += 1
                activity = activity.merge(self._flush_bottom(lane))
                top_region = self._chain[lane][-1]
            else:
                # Double overflow without reallocation (single region):
                # the SH bottom entry migrates to global memory (shared
                # load + global store), freeing the slot the new entry
                # will occupy at the circular top.
                bottom_region = chain[0]
                spilled_value, entry = bottom_region.spill_bottom()
                spill = self._spilled[lane]
                activity.ops.append(
                    MemoryOp(
                        space=MemSpace.SHARED,
                        kind=OpKind.LOAD,
                        address=self._shared_address(bottom_region, entry),
                    )
                )
                activity.ops.append(
                    MemoryOp(
                        space=MemSpace.GLOBAL,
                        kind=OpKind.STORE,
                        address=self._spill_address(lane, len(spill)),
                    )
                )
                spill.append(spilled_value)
                top_region = bottom_region
        entry = top_region.push_top(value)
        activity.ops.append(
            MemoryOp(
                space=MemSpace.SHARED,
                kind=OpKind.STORE,
                address=self._shared_address(top_region, entry),
            )
        )
        activity.extra_cycles += self._chain_walk_cycles(lane)
        return activity

    def _flush_bottom(self, lane: int) -> StackActivity:
        """Flush the bottom region to global memory and rotate it to top."""
        activity = no_activity()
        chain = self._chain[lane]
        bottom_region = chain[0]
        spill = self._spilled[lane]
        while not bottom_region.is_empty:
            value, entry = bottom_region.spill_bottom()
            activity.ops.append(
                MemoryOp(
                    space=MemSpace.SHARED,
                    kind=OpKind.LOAD,
                    address=self._shared_address(bottom_region, entry),
                )
            )
            activity.ops.append(
                MemoryOp(
                    space=MemSpace.GLOBAL,
                    kind=OpKind.STORE,
                    address=self._spill_address(lane, len(spill)),
                )
            )
            spill.append(value)
        bottom_region.flush_count += 1
        flushes = bottom_region.flush_count
        bottom_region.clear()
        bottom_region.flush_count = flushes
        chain.pop(0)
        chain.append(bottom_region)
        self.flush_count += 1
        return activity

    def pop(self, lane: int) -> "tuple[int, StackActivity]":
        self._check_lane(lane)
        if self._finished[lane]:
            raise StackError(
                f"lane {lane} has finished; reset() the warp before reuse"
            )
        rb = self._rb[lane]
        if not rb:
            raise StackError(f"pop from empty SMS stack (lane {lane})")
        value = rb.pop()
        region = self._top_nonempty_region(lane)
        if region is None and not self._spilled[lane]:
            return value, EMPTY_ACTIVITY
        activity = no_activity()
        if region is not None:
            # SH top -> RB bottom (shared load).
            reloaded, entry = region.pop_top()
            activity.ops.append(
                MemoryOp(
                    space=MemSpace.SHARED,
                    kind=OpKind.LOAD,
                    address=self._shared_address(region, entry),
                )
            )
            rb.insert(0, reloaded)
            activity.extra_cycles += self._chain_walk_cycles(lane)
            self._release_empty_borrowed(lane)
            # Global top -> SH bottom when entries live off chip and the
            # bottom region has a free slot (global load + shared store).
            spill = self._spilled[lane]
            bottom_region = self._chain[lane][0]
            if spill and not bottom_region.is_full:
                activity.ops.append(
                    MemoryOp(
                        space=MemSpace.GLOBAL,
                        kind=OpKind.LOAD,
                        address=self._spill_address(lane, len(spill) - 1),
                    )
                )
                refill_entry = bottom_region.refill_bottom(spill.pop())
                activity.ops.append(
                    MemoryOp(
                        space=MemSpace.SHARED,
                        kind=OpKind.STORE,
                        address=self._shared_address(bottom_region, refill_entry),
                    )
                )
        elif self._spilled[lane]:
            # SH drained entirely (possible after any-hit resets): reload
            # straight from global memory.
            spill = self._spilled[lane]
            activity.ops.append(
                MemoryOp(
                    space=MemSpace.GLOBAL,
                    kind=OpKind.LOAD,
                    address=self._spill_address(lane, len(spill) - 1),
                )
            )
            rb.insert(0, spill.pop())
        return value, activity

    def depth(self, lane: int) -> int:
        self._check_lane(lane)
        return (
            len(self._rb[lane]) + self._sh_count(lane) + len(self._spilled[lane])
        )

    def contents(self, lane: int) -> List[int]:
        self._check_lane(lane)
        sh_values: List[int] = []
        for region in self._chain[lane]:
            sh_values.extend(region.values)
        return list(self._spilled[lane]) + sh_values + list(self._rb[lane])

    def finish(self, lane: int) -> None:
        """Lane completed traversal: free its stacks for reallocation.

        Every region in the lane's chain (its own and any borrowed ones)
        is cleared and returned to the idle pool.  An already-finished
        lane's second ``finish`` is a no-op — in particular it must not
        touch the lane's own region, which may meanwhile be borrowed by
        another lane.  A finished lane cannot push or pop again until
        :meth:`reset`.
        """
        self._check_lane(lane)
        self._rb[lane].clear()
        self._spilled[lane].clear()
        self._finished[lane] = True
        for region in self._chain[lane]:
            region.clear()
            self._borrowed_by[region.owner] = None
            self._idle[region.owner] = self._finished[region.owner]
        self._chain[lane] = []

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the model's internal consistency (test/diagnostic use).

        Verifies: every region appears in exactly one chain (or is idle),
        borrowed_by agrees with chain membership, idle implies unowned,
        region occupancy matches its circular pointers, and only the
        topmost chain regions may be partially filled.

        Raises:
            StackError: on any violation.
        """
        # Identity-matched (region, holder) pairs: SL104 bans id()-keyed
        # maps in model code, and `is`-search over <= warp_size regions
        # is plenty for a diagnostic path.
        seen_regions: list = []

        def holder_of(region):
            for held, holder in seen_regions:
                if held is region:
                    return holder
            return None

        for lane in range(self.warp_size):
            for region in self._chain[lane]:
                previous = holder_of(region)
                if previous is not None:
                    raise StackError(
                        f"region of lane {region.owner} appears in chains of "
                        f"lanes {previous} and {lane}"
                    )
                seen_regions.append((region, lane))
                if self._borrowed_by[region.owner] != lane:
                    raise StackError(
                        f"region of lane {region.owner} is in lane {lane}'s "
                        f"chain but borrowed_by says "
                        f"{self._borrowed_by[region.owner]}"
                    )
        for lane in range(self.warp_size):
            holder = self._borrowed_by[lane]
            in_chain = holder_of(self._own[lane]) is not None
            if holder is None:
                if in_chain:
                    raise StackError(
                        f"lane {lane}'s region marked free but is in a chain"
                    )
            elif not in_chain:
                raise StackError(
                    f"lane {lane}'s region marked held by {holder} "
                    f"but is in no chain"
                )
            if self._idle[lane] and self._borrowed_by[lane] is not None:
                raise StackError(f"lane {lane} idle yet borrowed")
        for lane in range(self.warp_size):
            chain = self._chain[lane]
            for region in chain:
                if region.count != len(region.values):
                    raise StackError(
                        f"region of lane {region.owner}: count "
                        f"{region.count} != values {len(region.values)}"
                    )
                if region.count > region.capacity:
                    raise StackError(
                        f"region of lane {region.owner} over capacity"
                    )

    def sh_occupancy(self, lane: int) -> int:
        """Entries currently in shared memory for ``lane``."""
        self._check_lane(lane)
        return self._sh_count(lane)

    def global_occupancy(self, lane: int) -> int:
        """Entries currently spilled to global memory for ``lane``."""
        self._check_lane(lane)
        return len(self._spilled[lane])

    def chain_length(self, lane: int) -> int:
        """Number of SH regions (own + borrowed) in ``lane``'s chain."""
        self._check_lane(lane)
        return len(self._chain[lane])

    def soa_state(self) -> dict:
        """Warp-wide occupancy as contiguous arrays (SoA view).

        One array per stack tier — RB, SH (own + borrowed) and global
        spill entries per lane — for whole-warp invariant checks and
        diagnostics without a per-lane Python call per query.  Used by
        the vector backend's plan sampler
        (:class:`repro.guard.vector.VectorPlanSampler`).
        """
        import numpy as np

        warp_size = self.warp_size
        sh = np.fromiter(
            (self._sh_count(lane) for lane in range(warp_size)),
            dtype=np.int64, count=warp_size,
        )
        spilled = np.fromiter(
            (len(self._spilled[lane]) for lane in range(warp_size)),
            dtype=np.int64, count=warp_size,
        )
        rb = np.fromiter(
            (len(self._rb[lane]) for lane in range(warp_size)),
            dtype=np.int64, count=warp_size,
        )
        return {"rb": rb, "sh": sh, "global": spilled}


def take_realloc_stats(stack) -> Tuple[int, int, int]:
    """Read and reset a stack model's reallocation statistics.

    Returns the ``(borrows, flushes, forced_flushes)`` counted since the
    last call.  Reaches the :class:`SmsStack` behind a guard wrapper
    (``unwrapped``) or an inter-warp slot view (``shared``); any other
    model has none.  Both timing cores harvest through here.
    """
    stack = getattr(stack, "unwrapped", stack)
    if not isinstance(stack, SmsStack):
        stack = getattr(stack, "shared", None)
    if not isinstance(stack, SmsStack):
        return 0, 0, 0
    stats = (stack.borrow_count, stack.flush_count, stack.forced_flush_count)
    stack.borrow_count = 0
    stack.flush_count = 0
    stack.forced_flush_count = 0
    return stats
