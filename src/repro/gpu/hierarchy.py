"""The global-memory path: L1D -> L2 -> DRAM.

One instance per SM (private L1D) with the L2 and DRAM passed in;
:func:`sm_memory` builds one as the simulator does, over the shared L2.
``access`` returns the completion time of a request issued at ``now`` and
updates hit/miss counters; dirty evictions generate write-back traffic at
the level below.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import ConfigError
from repro.gpu.cache import Cache, L1Cache
from repro.gpu.config import GPUConfig
from repro.gpu.counters import Counters
from repro.gpu.dram import Dram


class MemoryHierarchy:
    """Timing and traffic model of one SM's view of global memory."""

    def __init__(self, config: GPUConfig, l2: Cache, dram: Dram) -> None:
        self.config = config
        # Fully associative, as in Table I.
        self.l1 = L1Cache(
            size_bytes=config.l1d_bytes,
            line_bytes=config.line_bytes,
            name="L1D",
        )
        if l2.line_bytes != config.line_bytes:
            # fetch_lines indexes the L2 with L1-aligned line addresses.
            raise ConfigError(
                f"L2 line size {l2.line_bytes} B differs from the L1's "
                f"{config.line_bytes} B"
            )
        self.l2 = l2
        self.dram = dram
        self._l2_port_free = 0

    def _l2_occupy(self, now: int, sectors: int = 4) -> int:
        """Claim the (per-SM share of the) L2 port; returns service start."""
        start = self._l2_port_free
        if now > start:
            start = now
        cycles = self.config.l2_service_cycles * sectors // 4
        self._l2_port_free = start + (cycles if cycles > 0 else 1)
        return start

    def pollute(self, lines: int, now: int, counters: "Counters") -> None:
        """Occupy ``lines`` L1 lines with foreign (shader/texture) data.

        Models the sub-cores sharing the unified L1D with the RT unit
        (paper III-B): the traffic itself is not on the RT unit's critical
        path and its lines are never re-read, but it evicts node data and
        spilled stack entries.  Evicted dirty lines (spilled stack
        entries) still write back — that is real RT-unit-caused traffic.
        """
        # Write-backs follow the burst: L1 state does not depend on L2,
        # and the L2 sees the victims in LRU order either way.
        for victim in self.l1.pollute(lines):
            self._writeback_to_l2(victim, now, counters)

    def lines_of(self, address: int, size_bytes: int) -> List[int]:
        """Line addresses an access of ``size_bytes`` at ``address`` touches.

        An empty access still touches the line holding ``address``.
        """
        line = self.config.line_bytes
        end = address + (size_bytes if size_bytes > 1 else 1)
        return list(range(address - address % line, end, line))

    def access_line(
        self,
        line_addr: int,
        now: int,
        is_store: bool,
        counters: Counters,
        policy: str = "l1",
    ) -> int:
        """One line-granular access; returns its completion time.

        ``policy`` selects cacheability: ``"l1"`` (normal), ``"l2"``
        (bypass L1) or ``"uncached"`` (straight to DRAM) — the latter two
        model thread-local stack spill traffic, see
        ``GPUConfig.spill_cache_policy``.
        """
        config = self.config
        if policy == "uncached":
            # An uncoalesced 8-byte spill occupies one 32-byte sector of
            # L2-port and DRAM bandwidth, not a whole line.
            start = self._l2_occupy(now, sectors=1)
            base = start + config.l1_latency + config.l2_latency
            if is_store:
                self.dram.write(start, sectors=1)
                counters.dram_writes += 1
                return base
            done = self.dram.read(base, sectors=1)
            counters.dram_reads += 1
            return done
        if policy == "l2":
            start = self._l2_occupy(now, sectors=1)
            l2_hit, l2_evicted = self.l2.probe(line_addr, is_store=is_store)
            if l2_evicted is not None:
                self.dram.write(start)
                counters.dram_writes += 1
            if l2_hit:
                counters.l2_hits += 1
                return start + config.l1_latency + config.l2_latency
            counters.l2_misses += 1
            if is_store:
                return start + config.l1_latency + config.l2_latency
            done = self.dram.read(start + config.l1_latency + config.l2_latency)
            counters.dram_reads += 1
            return done

        hit, evicted = self.l1.probe(line_addr, is_store=is_store)
        if evicted is not None:
            self._writeback_to_l2(evicted, now, counters)
        if hit:
            counters.l1_hits += 1
            return now + config.l1_latency
        counters.l1_misses += 1

        start = self._l2_occupy(now, sectors=4)
        l2_hit, l2_evicted = self.l2.probe(line_addr, is_store=False)
        if l2_evicted is not None:
            self.dram.write(start)
            counters.dram_writes += 1
        if l2_hit:
            counters.l2_hits += 1
            return start + config.l1_latency + config.l2_latency
        counters.l2_misses += 1
        done = self.dram.read(start + config.l1_latency + config.l2_latency)
        counters.dram_reads += 1
        return done

    def fetch_lines(self, lines: Iterable[int], start: int, counters: Counters) -> int:
        """Burst of node-fetch loads, one issued per L1 port slot.

        Equivalent to ``access_line(line, start + i * l1_port_cycles,
        False, counters)`` for each line in order, returning the latest
        completion time — but with the L1 probe and eviction, the L2 port
        claim and the L2 set probe inlined, and the hit/miss tallies added
        once per call.  This is the node-fetch inner loop of every warp
        iteration.
        """
        config = self.config
        port = config.l1_port_cycles
        l1_latency = config.l1_latency
        l2_base = l1_latency + config.l2_latency
        l2_cycles = config.l2_service_cycles  # a full line: four sectors
        if l2_cycles <= 0:
            l2_cycles = 1
        l1 = self.l1
        l1_lines = l1._lines
        capacity = l1.total_lines
        live = l1._live
        head = l1._head
        l2 = self.l2
        l2_sets = l2._sets
        l2_num_sets = l2.num_sets
        l2_assoc = l2.assoc
        line_bytes = l2.line_bytes
        dram = self.dram
        port_free = self._l2_port_free
        now = start
        fetch_done = start
        l1_hits = 0
        l1_misses = 0
        l2_hits = 0
        l2_misses = 0
        dram_reads = 0
        dram_writes = 0
        for line in lines:
            if line in l1_lines:
                l1_lines.move_to_end(line)
                l1_hits += 1
                done = now + l1_latency
            else:
                l1_misses += 1
                if live < capacity:
                    live += 1
                elif head:
                    head -= 1
                else:
                    victim, value = l1_lines.popitem(False)
                    if victim < 0:
                        head = value - 1
                    elif value:
                        self._writeback_to_l2(victim, now, counters)
                l1_lines[line] = False
                issue = port_free if port_free > now else now
                port_free = issue + l2_cycles
                l2_set = l2_sets[(line // line_bytes) % l2_num_sets]
                if line in l2_set:
                    l2_set.move_to_end(line)
                    l2_hits += 1
                    done = issue + l2_base
                else:
                    l2_misses += 1
                    if len(l2_set) >= l2_assoc:
                        _, dirty = l2_set.popitem(False)
                        if dirty:
                            dram.write(issue)
                            dram_writes += 1
                    l2_set[line] = False
                    done = dram.read(issue + l2_base)
                    dram_reads += 1
            if done > fetch_done:
                fetch_done = done
            now += port
        l1._live = live
        l1._head = head
        l1.hits += l1_hits
        l1.misses += l1_misses
        l2.hits += l2_hits
        l2.misses += l2_misses
        self._l2_port_free = port_free
        counters.l1_hits += l1_hits
        counters.l1_misses += l1_misses
        counters.l2_hits += l2_hits
        counters.l2_misses += l2_misses
        counters.dram_reads += dram_reads
        counters.dram_writes += dram_writes
        return fetch_done

    def _writeback_to_l2(self, line_addr: int, now: int, counters: Counters) -> None:
        """Install an evicted dirty L1 line into L2 (write-back path)."""
        _, evicted = self.l2.probe(line_addr, is_store=True)
        if evicted is not None:
            self.dram.write(now)
            counters.dram_writes += 1


def sm_memory(config: GPUConfig, l2: Optional[Cache] = None) -> MemoryHierarchy:
    """One SM's memory system, as the simulator builds it.

    The SM gets its own L1D and its own DRAM queue, which serves at
    ``1 / num_sms`` of the DRAM bandwidth, over ``l2``: the L2 all SMs
    share, or a new one of ``config``'s geometry when none is given.
    """
    if l2 is None:
        l2 = Cache(
            size_bytes=config.l2_bytes,
            line_bytes=config.line_bytes,
            assoc=config.l2_assoc,
            name="L2",
        )
    dram = Dram(
        latency=config.dram_latency,
        service_cycles=config.dram_service_cycles * config.num_sms,
    )
    return MemoryHierarchy(config, l2=l2, dram=dram)
