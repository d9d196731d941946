"""Shared-memory layout tests (paper Fig. 9 bank picture)."""

import pytest

from repro.errors import ConfigError
from repro.stack.layout import (
    BANK_COUNT,
    ENTRY_BYTES,
    ROW_BYTES,
    SharedStackLayout,
    bank_of_word,
    words_of_access,
)


def test_region_bytes():
    assert SharedStackLayout(entries=8).region_bytes == 64


def test_lanes_per_row_sh8():
    # 64-byte regions: two lanes share each 128-byte row.
    assert SharedStackLayout(entries=8).lanes_per_row == 2


def test_lanes_per_row_sh4():
    assert SharedStackLayout(entries=4).lanes_per_row == 4


def test_lanes_per_row_sh16():
    assert SharedStackLayout(entries=16).lanes_per_row == 1


def test_total_bytes_sh8_warp():
    # 32 lanes x 64 B = 2 KB per warp.
    assert SharedStackLayout(entries=8).total_bytes == 2048


def test_paper_sram_split():
    """8-entry stacks x 32 threads x 4 warps = 8 KB shared (paper IV-B)."""
    per_warp = SharedStackLayout(entries=8).total_bytes
    assert per_warp * 4 == 8 * 1024


def test_even_lanes_low_banks():
    """Fig. 9: even threads cover banks 0-15, odd threads 16-31 (SH_8)."""
    layout = SharedStackLayout(entries=8)
    for lane in range(0, 32, 2):
        for entry in range(8):
            banks = layout.banks_of_entry(lane, entry)
            assert all(b < 16 for b in banks)
    for lane in range(1, 32, 2):
        for entry in range(8):
            banks = layout.banks_of_entry(lane, entry)
            assert all(b >= 16 for b in banks)


def test_entry_spans_adjacent_banks():
    layout = SharedStackLayout(entries=8)
    first, second = layout.banks_of_entry(0, 3)
    assert second == first + 1


def test_entry_banks_match_paper_examples():
    """Fig. 9: entry e of an even lane sits at banks (2e, 2e+1)."""
    layout = SharedStackLayout(entries=8)
    for entry in range(8):
        assert layout.banks_of_entry(0, entry) == (2 * entry, 2 * entry + 1)


def test_regions_disjoint():
    layout = SharedStackLayout(entries=8)
    spans = []
    for lane in range(32):
        base = layout.region_base(lane)
        spans.append((base, base + layout.region_bytes))
    spans.sort()
    for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
        assert end_a <= start_b


def test_entry_address_within_region():
    layout = SharedStackLayout(entries=8)
    for lane in range(32):
        base = layout.region_base(lane)
        for entry in range(8):
            address = layout.entry_address(lane, entry)
            assert base <= address < base + layout.region_bytes


def test_base_address_offsets_everything():
    plain = SharedStackLayout(entries=8)
    offset = SharedStackLayout(entries=8, base_address=4096)
    assert offset.region_base(5) == plain.region_base(5) + 4096


@pytest.mark.parametrize("entries", [1, 2, 4, 8, 16, 32])
@pytest.mark.parametrize("warp_size", [8, 32])
def test_region_bases_pack_row_major(entries, warp_size):
    """Regions below a row share rows left to right; larger ones abut."""
    layout = SharedStackLayout(entries=entries, warp_size=warp_size, base_address=512)
    region = entries * 8
    per_row = max(1, 128 // region)
    for lane in range(warp_size):
        if region >= 128:
            want = 512 + lane * region
        else:
            want = 512 + (lane // per_row) * 128 + (lane % per_row) * region
        assert layout.region_base(lane) == want


def test_invalid_args():
    with pytest.raises(ConfigError):
        SharedStackLayout(entries=0)
    layout = SharedStackLayout(entries=8)
    with pytest.raises(ConfigError):
        layout.region_base(32)
    with pytest.raises(ConfigError):
        layout.region_base(-1)
    with pytest.raises(ConfigError):
        layout.entry_address(0, 8)


def test_words_of_access_8byte_entry():
    assert words_of_access(0, 8) == [0, 1]
    assert words_of_access(64, 8) == [16, 17]


def test_bank_of_word_wraps():
    assert bank_of_word(0) == 0
    assert bank_of_word(BANK_COUNT) == 0
    assert bank_of_word(BANK_COUNT + 3) == 3


def test_large_region_contiguous():
    """Regions >= one row are laid out contiguously per lane."""
    layout = SharedStackLayout(entries=32)  # 256 B per lane
    assert layout.region_base(1) == layout.region_base(0) + 256
