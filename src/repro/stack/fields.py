"""Ray-buffer bookkeeping fields (paper section VI-A / VI-C).

The SMS stack manager extends each thread's ray-buffer record with Top,
Bottom and Overflow fields, plus Next TID / Idle / Priority / Flush for
dynamic intra-warp reallocation.  This module sizes those fields and
reproduces the paper's storage-overhead arithmetic (96 B + 176 B = 272 B
per SM for the default configuration); the simulated state itself lives
in :class:`~repro.stack.sms.SmsStack`.
"""

from __future__ import annotations

from math import ceil, log2

from repro.errors import ConfigError


def field_bits(
    sh_entries: int,
    warp_size: int = 32,
    max_borrows: int = 4,
    max_flushes: int = 3,
) -> dict:
    """Bit width of each ray-buffer field for a given configuration."""
    if sh_entries <= 0:
        raise ConfigError("sh_entries must be positive")
    index_bits = max(1, ceil(log2(sh_entries)))
    return {
        "top": index_bits,
        "bottom": index_bits,
        "overflow": 1,
        "idle": 1,
        "next_tid": max(1, ceil(log2(warp_size))),
        "priority": max(1, ceil(log2(max_borrows))),
        "flush": max(1, ceil(log2(max_flushes + 1))),
    }


def overhead_bytes_per_rt_unit(
    sh_entries: int = 8,
    warp_size: int = 32,
    warps_per_rt_unit: int = 4,
    max_borrows: int = 4,
    max_flushes: int = 3,
) -> dict:
    """Storage overhead of the SMS fields, as in paper section VI-C.

    For the default configuration (8-entry SH stacks, 32 threads, 4 warps)
    this yields 96 bytes of Top/Bottom state and 176 bytes of
    Overflow/Idle/NextTID/Priority/Flush state — 272 bytes per RT unit.
    """
    bits = field_bits(sh_entries, warp_size, max_borrows, max_flushes)
    threads = warp_size * warps_per_rt_unit
    index_bits = (bits["top"] + bits["bottom"]) * threads
    other_bits = (
        bits["overflow"] + bits["idle"] + bits["next_tid"]
        + bits["priority"] + bits["flush"]
    ) * threads
    return {
        "top_bottom_bytes": index_bits // 8,
        "management_bytes": other_bits // 8,
        "total_bytes": index_bits // 8 + other_bits // 8,
    }
