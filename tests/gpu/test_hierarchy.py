"""Memory hierarchy path tests."""

import pytest

from repro.errors import ConfigError
from repro.gpu.cache import Cache
from repro.gpu.config import GPUConfig
from repro.gpu.counters import Counters
from repro.gpu.dram import Dram
from repro.gpu.hierarchy import MemoryHierarchy


def _make_parts():
    config = GPUConfig()
    l2 = Cache(size_bytes=config.l2_bytes, line_bytes=128, assoc=16, name="L2")
    dram = Dram(latency=config.dram_latency, service_cycles=4)
    return config, MemoryHierarchy(config, l2=l2, dram=dram), Counters()


@pytest.fixture
def parts():
    return _make_parts()


def test_cold_miss_goes_to_dram(parts):
    config, hierarchy, counters = parts
    done = hierarchy.access_line(0x1000, 0, is_store=False, counters=counters)
    assert counters.l1_misses == 1
    assert counters.l2_misses == 1
    assert counters.dram_reads == 1
    assert done >= config.l1_latency + config.l2_latency + config.dram_latency


def test_l1_hit_fast(parts):
    config, hierarchy, counters = parts
    hierarchy.access_line(0x1000, 0, is_store=False, counters=counters)
    done = hierarchy.access_line(0x1000, 1000, is_store=False, counters=counters)
    assert done == 1000 + config.l1_latency
    assert counters.l1_hits == 1


def test_l2_hit_medium(parts):
    config, hierarchy, counters = parts
    hierarchy.access_line(0x1000, 0, is_store=False, counters=counters)
    # Evict from L1 (fully assoc LRU) by streaming more lines than capacity.
    lines = hierarchy.l1.total_lines
    for i in range(lines):
        hierarchy.access_line(0x100000 + i * 128, 0, is_store=False, counters=counters)
    counters2 = Counters()
    # Probe late enough that the L2 port queue from the eviction stream
    # has drained, so the access sees pure L2-hit latency.
    done = hierarchy.access_line(0x1000, 100000, is_store=False, counters=counters2)
    assert counters2.l1_misses == 1
    assert counters2.l2_hits == 1
    assert done == 100000 + config.l1_latency + config.l2_latency


def test_dirty_l1_eviction_writes_back(parts):
    config, hierarchy, counters = parts
    hierarchy.access_line(0x1000, 0, is_store=True, counters=counters)
    lines = hierarchy.l1.total_lines
    for i in range(lines + 1):
        hierarchy.access_line(0x200000 + i * 128, 0, is_store=False, counters=counters)
    # The dirty line was written back into L2 (hit there now, no DRAM read).
    before_reads = counters.dram_reads
    counters2 = Counters()
    hierarchy.access_line(0x1000, 0, is_store=False, counters=counters2)
    assert counters2.l2_hits == 1
    assert counters.dram_reads == before_reads


def test_uncached_policy_goes_straight_to_dram(parts):
    config, hierarchy, counters = parts
    done = hierarchy.access_line(
        0x3000, 0, is_store=False, counters=counters, policy="uncached"
    )
    assert counters.l1_misses == 0
    assert counters.dram_reads == 1
    assert not hierarchy.l1.contains(0x3000)
    # Repeat access is again DRAM.
    hierarchy.access_line(0x3000, 0, is_store=False, counters=counters, policy="uncached")
    assert counters.dram_reads == 2


def test_uncached_store_bandwidth_only(parts):
    config, hierarchy, counters = parts
    done = hierarchy.access_line(
        0x3000, 0, is_store=True, counters=counters, policy="uncached"
    )
    assert counters.dram_writes == 1
    assert done <= config.l1_latency + config.l2_latency


def test_l2_policy_caches_in_l2_only(parts):
    config, hierarchy, counters = parts
    hierarchy.access_line(0x4000, 0, is_store=False, counters=counters, policy="l2")
    assert not hierarchy.l1.contains(0x4000)
    assert hierarchy.l2.contains(0x4000)
    counters2 = Counters()
    hierarchy.access_line(0x4000, 0, is_store=False, counters=counters2, policy="l2")
    assert counters2.l2_hits == 1
    assert counters2.dram_reads == 0


def test_lines_of_spanning_access(parts):
    _, hierarchy, _ = parts
    assert hierarchy.lines_of(0, 8) == [0]
    assert hierarchy.lines_of(120, 16) == [0, 128]
    assert hierarchy.lines_of(0, 256) == [0, 128]
    assert hierarchy.lines_of(0, 257) == [0, 128, 256]


def test_pollution_evicts_l1(parts):
    _, hierarchy, counters = parts
    hierarchy.access_line(0x1000, 0, is_store=False, counters=counters)
    hierarchy.pollute(hierarchy.l1.total_lines, 0, counters)
    assert not hierarchy.l1.contains(0x1000)


def test_pollution_writes_back_dirty_victims(parts):
    _, hierarchy, counters = parts
    hierarchy.access_line(0x1000, 0, is_store=True, counters=counters)
    hierarchy.pollute(hierarchy.l1.total_lines, 0, counters)
    # The dirty line must now live in L2.
    assert hierarchy.l2.contains(0x1000)


def test_pollution_never_aliases_a_resident_line(parts):
    """Shader pollution has no address, so it cannot overwrite a real line.

    0x4000_0000 is where a streamed pollution address window would begin;
    node data of a large scene can sit there.
    """
    _, hierarchy, counters = parts
    line = 0x4000_0000
    # A dirty spill line stays dirty under a burst and is written back.
    hierarchy.access_line(line, 0, is_store=True, counters=counters, policy="l1")
    hierarchy.pollute(hierarchy.l1.total_lines + 1, 0, counters)
    assert not hierarchy.l1.contains(line)
    assert hierarchy.l2.flush() == 1

    # A clean node line and a pollution line are two residents.
    _, hierarchy, counters = _make_parts()
    hierarchy.fetch_lines([line], 0, counters)
    hierarchy.pollute(1, 0, counters)
    hierarchy.fetch_lines([0x1000], 0, counters)
    assert hierarchy.l1.occupancy() == 3


def test_l2_must_share_the_l1_line_size():
    config = GPUConfig()
    l2 = Cache(size_bytes=config.l2_bytes, line_bytes=64, assoc=16, name="L2")
    with pytest.raises(ConfigError, match="line size"):
        MemoryHierarchy(config, l2=l2, dram=Dram())
