"""Ray-buffer field and overhead arithmetic tests (paper section VI-C)."""

import pytest

from repro.errors import ConfigError
from repro.stack.fields import field_bits, overhead_bytes_per_rt_unit


def test_field_bits_paper_values():
    """8-entry SH stack: Top/Bottom 3 bits; NextTID 5; Priority/Flush 2."""
    bits = field_bits(8)
    assert bits["top"] == 3
    assert bits["bottom"] == 3
    assert bits["overflow"] == 1
    assert bits["idle"] == 1
    assert bits["next_tid"] == 5
    assert bits["priority"] == 2
    assert bits["flush"] == 2


def test_field_bits_scale_with_stack():
    assert field_bits(16)["top"] == 4
    assert field_bits(4)["top"] == 2
    assert field_bits(2)["top"] == 1


def test_field_bits_invalid():
    with pytest.raises(ConfigError):
        field_bits(0)


def test_overhead_paper_numbers():
    """Paper VI-C: 96 B Top/Bottom + 176 B management = 272 B per RT unit."""
    overhead = overhead_bytes_per_rt_unit(sh_entries=8)
    assert overhead["top_bottom_bytes"] == 96
    assert overhead["management_bytes"] == 176
    assert overhead["total_bytes"] == 272


def test_overhead_far_below_rb_doubling():
    """The paper's comparison: 272 B versus 8 KB for 8 more RB entries."""
    overhead = overhead_bytes_per_rt_unit(sh_entries=8)
    rb_doubling = 8 * 8 * 32 * 4  # 8 B x 8 entries x 32 threads x 4 warps
    assert overhead["total_bytes"] * 30 < rb_doubling


def test_overhead_scales_with_warps():
    two = overhead_bytes_per_rt_unit(sh_entries=8, warps_per_rt_unit=2)
    four = overhead_bytes_per_rt_unit(sh_entries=8, warps_per_rt_unit=4)
    assert four["total_bytes"] == 2 * two["total_bytes"]
