"""Hardware overhead model (paper section VI-C).

Reproduces the paper's storage arithmetic: the SMS fields add 272 bytes
per SM in the default configuration (96 B of Top/Bottom indices + 176 B
of Overflow/Idle/NextTID/Priority/Flush state), versus 8 KB to instead
double the RB stack (8 B x 8 entries x 32 threads x 4 warps).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.config import GPUConfig
from repro.stack.base import ENTRY_BYTES
from repro.stack.fields import field_bits, overhead_bytes_per_rt_unit


@dataclass
class OverheadReport:
    """Storage overheads of a configuration, in bytes per SM."""

    sms_field_bytes: int
    top_bottom_bytes: int
    management_bytes: int
    rb_stack_bytes: int
    rb_double_bytes: int
    shared_memory_bytes: int

    def summary(self) -> str:
        """Human-readable report matching the paper's VI-C numbers."""
        return (
            f"SMS bookkeeping fields : {self.sms_field_bytes:>6d} B/SM "
            f"({self.top_bottom_bytes} B Top/Bottom + "
            f"{self.management_bytes} B management)\n"
            f"RB stack storage       : {self.rb_stack_bytes:>6d} B/SM\n"
            f"Doubling the RB stack  : {self.rb_double_bytes:>6d} B/SM (for comparison)\n"
            f"Shared memory carve-out: {self.shared_memory_bytes:>6d} B/SM"
        )


def sms_hardware_overhead(config: GPUConfig = None) -> OverheadReport:
    """Compute the SMS storage overhead for ``config`` (paper defaults)."""
    if config is None:
        from repro.core.presets import sms_config

        config = sms_config()
    sh_entries = config.sh_stack_entries or 8
    fields = overhead_bytes_per_rt_unit(
        sh_entries=sh_entries,
        warp_size=config.warp_size,
        warps_per_rt_unit=config.max_warps_per_rt_unit,
        max_borrows=config.max_borrows,
        max_flushes=config.max_flushes,
    )
    rb_entries = config.rb_stack_entries or 0
    rb_bytes = ENTRY_BYTES * rb_entries * config.threads_per_rt_unit
    return OverheadReport(
        sms_field_bytes=fields["total_bytes"],
        top_bottom_bytes=fields["top_bottom_bytes"],
        management_bytes=fields["management_bytes"],
        rb_stack_bytes=rb_bytes,
        rb_double_bytes=rb_bytes,
        shared_memory_bytes=config.shared_memory_bytes,
    )


def field_bit_table(config: GPUConfig = None) -> dict:
    """Bit widths of each SMS ray-buffer field (paper VI-C enumeration)."""
    if config is None:
        from repro.core.presets import sms_config

        config = sms_config()
    return field_bits(
        sh_entries=config.sh_stack_entries or 8,
        warp_size=config.warp_size,
        max_borrows=config.max_borrows,
        max_flushes=config.max_flushes,
    )
