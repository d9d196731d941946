"""Cache model tests."""

import pytest

from repro.errors import ConfigError
from repro.gpu.cache import Cache


def test_miss_then_hit():
    cache = Cache(size_bytes=1024, line_bytes=128)
    assert cache.probe(0) == (False, None)
    assert cache.probe(0) == (True, None)
    assert cache.probe(64) == (True, None)  # same line


def test_distinct_lines_miss():
    cache = Cache(size_bytes=1024, line_bytes=128)
    cache.probe(0)
    assert cache.probe(128) == (False, None)


def test_lru_eviction_order():
    cache = Cache(size_bytes=2 * 128, line_bytes=128)  # 2 lines
    cache.probe(0)
    cache.probe(128)
    cache.probe(0)        # 0 is now most recent
    cache.probe(256)      # evicts 128
    assert cache.contains(0)
    assert not cache.contains(128)
    assert cache.contains(256)


def test_dirty_eviction_reported():
    cache = Cache(size_bytes=128, line_bytes=128)  # 1 line
    cache.probe(0, is_store=True)
    assert cache.probe(128) == (False, 0)


def test_clean_eviction_not_reported():
    cache = Cache(size_bytes=128, line_bytes=128)
    cache.probe(0, is_store=False)
    assert cache.probe(128) == (False, None)


def test_store_marks_existing_line_dirty():
    cache = Cache(size_bytes=128, line_bytes=128)
    cache.probe(0, is_store=False)
    cache.probe(0, is_store=True)
    assert cache.probe(128) == (False, 0)


def test_set_associative_mapping():
    # 4 lines, 2-way: two sets.  Lines 0 and 256 map to set 0.
    cache = Cache(size_bytes=4 * 128, line_bytes=128, assoc=2)
    cache.probe(0)
    cache.probe(256)
    cache.probe(512)  # also set 0 -> evicts line 0
    assert not cache.contains(0)
    assert cache.contains(256)
    assert cache.contains(512)
    # Set 1 untouched.
    cache.probe(128)
    assert cache.contains(128)


def test_hit_miss_counters():
    cache = Cache(size_bytes=1024, line_bytes=128)
    cache.probe(0)
    cache.probe(0)
    cache.probe(128)
    assert cache.misses == 2
    assert cache.hits == 1


def test_occupancy_and_flush():
    cache = Cache(size_bytes=1024, line_bytes=128)
    cache.probe(0, is_store=True)
    cache.probe(128)
    assert cache.occupancy() == 2
    assert cache.flush() == 1
    assert cache.occupancy() == 0


def test_line_address_alignment():
    cache = Cache(size_bytes=1024, line_bytes=128)
    assert cache.line_address(130) == 128
    assert cache.line_address(127) == 0


def test_invalid_configs():
    with pytest.raises(ConfigError):
        Cache(size_bytes=64, line_bytes=128)
    with pytest.raises(ConfigError):
        Cache(size_bytes=100, line_bytes=128)
    with pytest.raises(ConfigError):
        Cache(size_bytes=1024, line_bytes=128, assoc=3)


def test_fully_associative_uses_whole_capacity():
    cache = Cache(size_bytes=4 * 128, line_bytes=128)  # fully assoc
    for i in range(4):
        cache.probe(i * 128)
    assert all(cache.contains(i * 128) for i in range(4))
    cache.probe(4 * 128)
    assert not cache.contains(0)  # LRU of the whole cache
