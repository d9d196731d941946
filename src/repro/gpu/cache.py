"""LRU caches: the set-associative L2 and the fully associative L1D.

Write-back, write-allocate.  The model tracks tags and dirty bits only —
no data — since the functional phase already resolved values; what matters
here is hit/miss behaviour and dirty-eviction write traffic.

:class:`L1Cache` also holds the SM's shader traffic (paper III-B) as
counted pollution bursts, since those lines are never read back.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.errors import ConfigError


def cache_lines(
    size_bytes: int, line_bytes: int, name: str, assoc: Optional[int] = None
) -> int:
    """Lines a cache of ``size_bytes`` holds.

    Rejects a size that is not a whole number of lines (at least one)
    and, given ``assoc`` ways, lines that do not split into whole sets.
    ``GPUConfig`` applies the same check, so a configuration the cache
    models would reject fails when it is built, not when a job runs.
    """
    if size_bytes < line_bytes:
        raise ConfigError(
            f"{name}: {size_bytes} B is smaller than one {line_bytes} B line"
        )
    if size_bytes % line_bytes:
        raise ConfigError(
            f"{name}: {size_bytes} B is not a whole number of "
            f"{line_bytes} B lines"
        )
    lines = size_bytes // line_bytes
    if assoc is not None and (assoc < 1 or lines % assoc):
        raise ConfigError(
            f"{name}: {lines} lines do not divide into {assoc} ways"
        )
    return lines


class Cache:
    """An LRU cache of ``size_bytes`` with ``assoc`` ways.

    ``assoc=None`` means fully associative.  The simulator builds the
    L2 from this class; the L1D is an :class:`L1Cache`.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 128,
        assoc: Optional[int] = None,
        name: str = "cache",
    ) -> None:
        self.name = name
        self.line_bytes = line_bytes
        self.total_lines = cache_lines(size_bytes, line_bytes, name, assoc)
        self.assoc = self.total_lines if assoc is None else assoc
        self.num_sets = self.total_lines // self.assoc
        # Each set maps line-address -> dirty flag, in LRU order (oldest first).
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _set_of(self, line_addr: int) -> OrderedDict:
        return self._sets[(line_addr // self.line_bytes) % self.num_sets]

    def line_address(self, address: int) -> int:
        """Align an address down to its line."""
        return address - (address % self.line_bytes)

    def probe(self, address: int, is_store: bool = False):
        """Look up the line holding ``address``; returns ``(hit, evicted_dirty)``.

        A miss allocates the line, first evicting its set's LRU line
        when the set is full.  ``evicted_dirty`` is that victim's
        address when it was dirty, else ``None``.
        """
        line = address - (address % self.line_bytes)
        cache_set = self._sets[(line // self.line_bytes) % self.num_sets]
        if line in cache_set:
            self.hits += 1
            cache_set.move_to_end(line)
            if is_store:
                cache_set[line] = True
            return True, None
        self.misses += 1
        evicted_dirty = None
        if len(cache_set) >= self.assoc:
            victim, dirty = cache_set.popitem(last=False)
            if dirty:
                evicted_dirty = victim
        cache_set[line] = is_store
        return False, evicted_dirty

    def contains(self, address: int) -> bool:
        """Non-mutating presence check (tests/diagnostics)."""
        line = self.line_address(address)
        return line in self._set_of(line)

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)

    def flush(self) -> int:
        """Drop all lines; returns how many dirty lines were discarded."""
        dirty = sum(1 for s in self._sets for flag in s.values() if flag)
        for cache_set in self._sets:
            cache_set.clear()
        return dirty


class L1Cache:
    """The fully associative LRU L1D, with counted shader-pollution bursts.

    Real lines map to their dirty flag in one ``OrderedDict``, oldest
    first.  A pollution burst (:meth:`pollute`) is one entry under a
    fresh negative key mapping to its line count; line addresses are
    non-negative, so ``key < 0`` tells a burst from a line.  The burst
    at the LRU head is held outside the dict as a plain remaining count
    (``_head``), so the LRU order is always ``_head`` pollution lines,
    then ``_lines``.

    A count is exact because a pollution line is clean and never probed:
    it only takes capacity and is evicted in its turn.  Its address
    would never be observed, so it has none, and it cannot alias a
    resident line.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 128,
                 name: str = "L1D") -> None:
        self.name = name
        self.line_bytes = line_bytes
        self.total_lines = cache_lines(size_bytes, line_bytes, name)
        #: line -> dirty flag, or negative burst key -> line count, in
        #: LRU order (oldest first).
        self._lines: OrderedDict = OrderedDict()
        #: Resident lines, counting every pollution line of every burst.
        self._live = 0
        #: Remaining pollution lines of the burst at the LRU head.
        self._head = 0
        self._burst_key = 0
        self.hits = 0
        self.misses = 0

    def line_address(self, address: int) -> int:
        """Align an address down to its line."""
        return address - (address % self.line_bytes)

    def probe(self, address: int, is_store: bool = False):
        """Look up the line holding ``address``; returns ``(hit, evicted_dirty)``.

        A miss allocates the line, first evicting the LRU resident when
        the cache is full.  ``evicted_dirty`` is that victim's address
        when it was a dirty real line, else ``None``.
        """
        line = address - (address % self.line_bytes)
        lines = self._lines
        if line in lines:
            self.hits += 1
            lines.move_to_end(line)
            if is_store:
                lines[line] = True
            return True, None
        self.misses += 1
        evicted_dirty = None
        if self._live >= self.total_lines:
            if self._head:
                self._head -= 1
            else:
                victim, value = lines.popitem(last=False)
                if victim < 0:
                    self._head = value - 1
                elif value:
                    evicted_dirty = victim
        else:
            self._live += 1
        lines[line] = is_store
        return False, evicted_dirty

    def pollute(self, count: int) -> List[int]:
        """Allocate ``count`` foreign clean lines; returns the dirty victims.

        Same state as ``count`` misses on fresh addresses that are never
        probed again, at O(1) per burst plus O(1) per victim.  The dirty
        real lines it evicts are returned in LRU order.  A burst of at
        least the capacity evicts every resident and leaves the cache
        full of pollution.
        """
        if count <= 0:
            return []
        self.misses += count
        lines = self._lines
        capacity = self.total_lines
        victims: List[int] = []
        if count >= capacity:
            while lines:
                line, value = lines.popitem(last=False)
                if line >= 0 and value:
                    victims.append(line)
            self._head = capacity
            self._live = capacity
            return victims
        overflow = self._live + count - capacity
        if overflow > 0:
            # count < capacity, so the overflow is smaller than the
            # resident count: only residents older than the burst go.
            head = self._head
            while overflow > 0:
                if head:
                    take = head if head < overflow else overflow
                    head -= take
                    overflow -= take
                else:
                    victim, value = lines.popitem(last=False)
                    if victim < 0:
                        head = value
                    else:
                        overflow -= 1
                        if value:
                            victims.append(victim)
            self._head = head
            self._live = capacity
        else:
            self._live += count
        self._burst_key -= 1
        lines[self._burst_key] = count
        return victims

    def contains(self, address: int) -> bool:
        """Non-mutating presence check of a real line (tests/diagnostics)."""
        return self.line_address(address) in self._lines

    def occupancy(self) -> int:
        """Number of resident lines, pollution included."""
        return self._live

    def flush(self) -> int:
        """Drop all lines; returns how many dirty lines were discarded."""
        dirty = sum(1 for line, value in self._lines.items()
                    if line >= 0 and value)
        self._lines.clear()
        self._head = 0
        self._live = 0
        return dirty
