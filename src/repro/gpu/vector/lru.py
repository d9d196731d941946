"""A pollution-aware mirror of the stepped L1D, for clean lines only.

The stepped :class:`~repro.gpu.cache.L1Cache` keeps its lines in one
``OrderedDict`` and counts each pollution burst instead of storing its
lines.  For the vector backend the L1 is the single hottest structure —
every node line of every iteration probes it, and every iteration
allocates ``shader_pollution_lines`` foreign lines in it — so this
module uses the same representation without dirty flags:

* Real (node) lines are keys mapping to ``True``, in LRU order, exactly
  like the stepped L1's clean lines.
* A pollution burst is one **marker** entry — a unique negative key
  mapping to the burst's line count.  Real line addresses are
  non-negative, so ``key < 0`` identifies markers.
* The marker currently at the LRU head is held *outside* the dict as a
  plain remaining-count integer (``head_marker``); markers are never
  probed, so the true LRU order is always ``[head_marker lines] +
  od``.  Evicting from it is one integer decrement — the common case,
  since pollution dominates the cold end of the cache.

A pollution line is never probed, so a count occupies the same
capacity and yields the same LRU evictions as that many individual
lines, at O(1) per burst instead of O(lines).

The mirror is only valid for a *clean* L1 (no stores ever hit it —
``spill_cache_policy`` is ``"uncached"`` or ``"l2"``), which is exactly
the eligibility gate :func:`repro.gpu.vector.plan.vector_unsupported_reason`
enforces: clean lines make eviction a pure bookkeeping action with no
write-back timing, so the marker representation is undetectable.

Equivalence with the stepped cache is property-tested in
``tests/gpu/test_vector_soa.py``.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["LazyL1"]


class LazyL1:
    """LRU set of clean cache lines with O(1) pollution bursts."""

    __slots__ = ("cap", "od", "live", "marker_seq", "head_marker")

    def __init__(self, capacity: int) -> None:
        self.cap = capacity
        #: line -> True (resident node line), or negative marker key ->
        #: remaining pollution count, in LRU order (oldest first).
        self.od: OrderedDict = OrderedDict()
        #: Resident *lines* (markers count their whole population).
        self.live = 0
        self.marker_seq = 0
        #: Remaining population of the marker at the LRU head (0 when
        #: the head is a real line or the cache holds no marker there).
        self.head_marker = 0

    def hit(self, line: int) -> bool:
        """Probe for ``line``; on a hit, refresh its recency."""
        od = self.od
        if line in od:
            od.move_to_end(line)
            return True
        return False

    def insert(self, line: int) -> None:
        """Insert a missing line, evicting the LRU resident at capacity.

        Mirrors the stepped miss path: the victim is taken *before* the
        insert (``len >= assoc`` check), so the new line can never evict
        itself.
        """
        if self.live >= self.cap:
            self._evict_one()
        self.od[line] = True
        self.live += 1

    def pollute(self, count: int) -> None:
        """Stream ``count`` guaranteed-miss foreign lines through.

        Equivalent to ``count`` sequential miss-inserts of lines that
        are never probed again: evict as many residents as capacity
        demands, then record the burst as one marker.  Requires
        ``count <= cap`` (checked at plan build) so the burst can never
        evict its own lines.
        """
        if count <= 0:
            return
        overflow = self.live + count - self.cap
        if overflow > 0:
            self._evict_many(overflow)
            self.live = self.cap
        else:
            self.live += count
        self.marker_seq -= 1
        self.od[self.marker_seq] = count

    def _evict_one(self) -> None:
        """Drop the least-recently-used resident line (or pollution)."""
        if self.head_marker:
            self.head_marker -= 1
        else:
            victim, value = self.od.popitem(last=False)
            if victim < 0:
                self.head_marker = value - 1
        self.live -= 1

    def _evict_many(self, n: int) -> None:
        """Drop the ``n`` least-recently-used residents in bulk."""
        od = self.od
        head_marker = self.head_marker
        self.live -= n
        while n > 0:
            if head_marker:
                take = head_marker if head_marker < n else n
                head_marker -= take
                n -= take
            else:
                victim, value = od.popitem(last=False)
                if victim < 0:
                    head_marker = value
                else:
                    n -= 1
        self.head_marker = head_marker

    def resident_lines(self) -> set:
        """The resident *tracked* (non-pollution) line set — test hook."""
        return {key for key in self.od if key >= 0}

    @property
    def occupancy(self) -> int:
        """Total resident lines including the pollution population."""
        return self.live
