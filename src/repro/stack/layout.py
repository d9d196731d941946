"""Physical layout of SH stacks in shared memory (paper Fig. 9).

Shared memory is organized as 32 banks of 4-byte words; a row of 32 words
spans 128 bytes.  Each lane owns a static region of ``entries * 8`` bytes.
Regions pack row-major: with 8-entry stacks (64 B), two lanes share each
128-byte row, so even lanes cover banks 0-15 and odd lanes banks 16-31 —
exactly the Fig. 9 picture.  Entry ``e`` of a lane's region spans the two
adjacent banks ``(2e, 2e+1)`` relative to the region start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ConfigError

#: Shared-memory bank count and word width on the modeled GPU.
BANK_COUNT = 32
BANK_WIDTH_BYTES = 4
ROW_BYTES = BANK_COUNT * BANK_WIDTH_BYTES
#: Bytes per stack entry (one 8-byte node address).
ENTRY_BYTES = 8


@dataclass(frozen=True)
class SharedStackLayout:
    """Address arithmetic for per-lane SH stack regions.

    Args:
        entries: SH stack entries per lane (N).
        warp_size: lanes per warp.
        base_address: byte offset of this warp's SH stack block within
            shared memory (each warp in the RT unit gets its own block).
    """

    entries: int
    warp_size: int = 32
    base_address: int = 0
    #: Each lane's region address, built once: every shared-stack access
    #: of the timing model asks for one.
    _region_bases: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigError("SH stack layout needs at least one entry")
        if self.warp_size <= 0:
            raise ConfigError("warp size must be positive")
        region_bytes = self.region_bytes
        if region_bytes >= ROW_BYTES:
            bases = [lane * region_bytes for lane in range(self.warp_size)]
        else:
            per_row = self.lanes_per_row
            bases = [
                (lane // per_row) * ROW_BYTES + (lane % per_row) * region_bytes
                for lane in range(self.warp_size)
            ]
        object.__setattr__(
            self, "_region_bases", tuple(self.base_address + base for base in bases)
        )

    @property
    def region_bytes(self) -> int:
        """Bytes of shared memory owned by one lane."""
        return self.entries * ENTRY_BYTES

    @property
    def lanes_per_row(self) -> int:
        """How many lane regions fit in one 128-byte bank row."""
        return max(1, ROW_BYTES // self.region_bytes)

    @property
    def total_bytes(self) -> int:
        """Shared memory consumed by one warp's stacks."""
        rows_needed = (self.warp_size + self.lanes_per_row - 1) // self.lanes_per_row
        if self.region_bytes >= ROW_BYTES:
            return self.warp_size * self.region_bytes
        return rows_needed * ROW_BYTES

    def region_base(self, lane: int) -> int:
        """Byte address of lane ``lane``'s region."""
        if not 0 <= lane < self.warp_size:
            raise ConfigError(f"lane {lane} outside warp of {self.warp_size}")
        return self._region_bases[lane]

    def entry_address(self, lane: int, entry: int) -> int:
        """Byte address of entry ``entry`` in lane ``lane``'s region."""
        if not 0 <= entry < self.entries:
            raise ConfigError(f"entry {entry} outside stack of {self.entries}")
        return self.region_base(lane) + entry * ENTRY_BYTES

    def banks_of_entry(self, lane: int, entry: int) -> Tuple[int, int]:
        """The two banks an 8-byte entry spans (Fig. 9's coloring)."""
        address = self.entry_address(lane, entry)
        first = (address // BANK_WIDTH_BYTES) % BANK_COUNT
        second = ((address + BANK_WIDTH_BYTES) // BANK_WIDTH_BYTES) % BANK_COUNT
        return first, second


def words_of_access(address: int, size_bytes: int) -> List[int]:
    """Word indices touched by an access (for bank-conflict accounting)."""
    first = address // BANK_WIDTH_BYTES
    last = (address + size_bytes - 1) // BANK_WIDTH_BYTES
    return list(range(first, last + 1))


def bank_of_word(word: int) -> int:
    """Bank a word index maps to."""
    return word % BANK_COUNT
