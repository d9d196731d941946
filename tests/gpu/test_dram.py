"""DRAM queue model tests."""

import pytest

from repro.errors import ConfigError
from repro.gpu.dram import Dram


def test_read_latency():
    dram = Dram(latency=100, service_cycles=4)
    assert dram.read(0) == 100


def test_back_to_back_reads_queue():
    dram = Dram(latency=100, service_cycles=4)
    first = dram.read(0, sectors=4)
    second = dram.read(0, sectors=4)
    assert first == 100
    assert second == 116  # waits 4 sectors x 4 cycles before starting


def test_spaced_reads_do_not_queue():
    dram = Dram(latency=100, service_cycles=4)
    dram.read(0, sectors=1)
    assert dram.read(1000) == 1100


def test_small_sector_cheaper_than_line():
    dram = Dram(latency=100, service_cycles=4)
    dram.read(0, sectors=1)
    after_small = dram.read(0, sectors=1)
    dram.reset()
    dram.read(0, sectors=4)
    after_line = dram.read(0, sectors=1)
    assert after_small < after_line


def test_write_consumes_bandwidth():
    dram = Dram(latency=100, service_cycles=4)
    dram.write(0, sectors=4)
    read_done = dram.read(0, sectors=4)
    assert read_done == 116  # read waited for the write's sectors


def test_counters():
    dram = Dram()
    dram.read(0)
    dram.read(0)
    dram.write(0)
    assert dram.reads == 2
    assert dram.writes == 1


def test_reset():
    dram = Dram(latency=100, service_cycles=4)
    dram.read(0)
    dram.reset()
    assert dram.reads == 0
    assert dram.read(0) == 100


def test_invalid_params():
    with pytest.raises(ConfigError):
        Dram(latency=-1)
    with pytest.raises(ConfigError):
        Dram(service_cycles=0)
