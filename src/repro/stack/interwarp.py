"""Inter-warp SH stack reallocation — the design the paper rejected.

Paper section V-B limits reallocation to threads *within the same warp*,
arguing that borrowing across warps "would involve complex tracking and
management of stack ownerships, as threads would need to return borrowed
stacks to the newly entered warp."  This module implements that rejected
design so the trade-off can be measured: one :class:`InterWarpSmsStack`
spans every warp slot of an RT unit, lanes may borrow any idle region in
the unit, and the complexity the paper predicted shows up concretely in
:meth:`reset_slot` — a newly admitted warp can find its lanes' own regions
still on loan to other warps, leaving them regionless until the borrower
releases.

The ``inter_warp`` knob space (``repro ablate run --space inter_warp``)
compares it against intra-warp reallocation; the gain at the paper's
RB_8+SH_8 design point is small, supporting the paper's choice.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import StackError
from repro.stack.layout import SharedStackLayout
from repro.stack.ops import StackActivity
from repro.stack.sms import SmsStack, _Region
from repro.stack.spill import SPILL_BASE_ADDRESS, SpillRegion


class InterWarpSmsStack(SmsStack):
    """SMS stacks for all warp slots of one RT unit, with unit-wide borrowing.

    Lanes are addressed globally: slot ``s``, lane ``l`` is lane
    ``s * lanes_per_warp + l``.  Shared-memory blocks and global spill
    regions stay per-slot, exactly as in the intra-warp design — only the
    borrow domain widens.
    """

    def __init__(
        self,
        rb_entries: int = 8,
        sh_entries: int = 8,
        slots: int = 4,
        lanes_per_warp: int = 32,
        skewed: bool = False,
        max_borrows: int = 4,
        max_flushes: int = 3,
        spill_base: int = SPILL_BASE_ADDRESS,
        unit_index: int = 0,
    ) -> None:
        if slots < 1:
            raise StackError("inter-warp stack needs at least one slot")
        self.slots = slots
        self.lanes_per_warp = lanes_per_warp
        block = SharedStackLayout(
            entries=sh_entries, warp_size=lanes_per_warp
        ).total_bytes
        self._layouts = [
            SharedStackLayout(
                entries=sh_entries,
                warp_size=lanes_per_warp,
                base_address=slot * block,
            )
            for slot in range(slots)
        ]
        self._spill_regions = [
            SpillRegion(
                unit_index * slots + slot,
                warp_size=lanes_per_warp,
                base_address=spill_base,
            )
            for slot in range(slots)
        ]
        super().__init__(
            rb_entries=rb_entries,
            sh_entries=sh_entries,
            warp_size=slots * lanes_per_warp,
            skewed=skewed,
            realloc=True,
            max_borrows=max_borrows,
            max_flushes=max_flushes,
            layout=self._layouts[0],
            spill_base=spill_base,
            warp_index=unit_index * slots,
        )

    # ------------------------------------------------------------------
    # per-slot addressing
    # ------------------------------------------------------------------

    def _shared_address(self, region: _Region, entry: int) -> int:
        slot, lane = divmod(region.owner, self.lanes_per_warp)
        return self._layouts[slot].entry_address(lane, entry)

    def _spill_address(self, lane: int, index: int) -> int:
        slot, local = divmod(lane, self.lanes_per_warp)
        return self._spill_regions[slot].address(local, index)

    # ------------------------------------------------------------------
    # warp replacement — the paper's complexity case
    # ------------------------------------------------------------------

    def reset_slot(self, slot: int) -> None:
        """A new warp enters ``slot``: reinitialize its lanes.

        Regions this slot's lanes had *borrowed* are returned to their
        owners.  A lane's *own* region may still be on loan to a lane of
        another slot; it stays there, and the new lane starts regionless —
        it reclaims the region (or borrows another) on its first overflow.
        """
        if not 0 <= slot < self.slots:
            raise StackError(f"slot {slot} outside RT unit of {self.slots}")
        start = slot * self.lanes_per_warp
        lanes = range(start, start + self.lanes_per_warp)
        for lane in lanes:
            self._rb[lane] = []
            self._spilled[lane] = []
            self._finished[lane] = False
            for region in self._chain[lane]:
                region.clear()
                self._borrowed_by[region.owner] = None
                self._idle[region.owner] = self._finished[region.owner]
            self._chain[lane] = []
        for lane in lanes:
            self._idle[lane] = False
            if self._borrowed_by[lane] is None or self._borrowed_by[lane] == lane:
                region = self._own[lane]
                region.clear()
                self._borrowed_by[lane] = lane
                self._chain[lane] = [region]
            # else: on loan to another slot; the lane starts regionless.

    def regionless_lanes(self, slot: int) -> List[int]:
        """Lanes of ``slot`` whose own region is on loan elsewhere."""
        start = slot * self.lanes_per_warp
        return [
            lane
            for lane in range(start, start + self.lanes_per_warp)
            if not self._chain[lane] and not self._finished[lane]
        ]


class SlotView:
    """Adapter exposing one slot of an :class:`InterWarpSmsStack` as a
    per-warp :class:`~repro.stack.base.StackModel` to the RT unit."""

    def __init__(self, shared: InterWarpSmsStack, slot: int) -> None:
        self.shared = shared
        self.slot = slot
        self.warp_size = shared.lanes_per_warp

    def _global(self, lane: int) -> int:
        return self.slot * self.shared.lanes_per_warp + lane

    def push(self, lane: int, value: int) -> StackActivity:
        return self.shared.push(self._global(lane), value)

    def pop(self, lane: int):
        return self.shared.pop(self._global(lane))

    def depth(self, lane: int) -> int:
        return self.shared.depth(self._global(lane))

    def contents(self, lane: int):
        return self.shared.contents(self._global(lane))

    def finish(self, lane: int) -> None:
        self.shared.finish(self._global(lane))

    def reset(self) -> None:
        self.shared.reset_slot(self.slot)
