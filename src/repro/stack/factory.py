"""Construct stack models from simulator configuration."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.stack.base import StackModel
from repro.stack.baseline import BaselineStack
from repro.stack.full import FullStack
from repro.stack.sms import SmsStack

if TYPE_CHECKING:
    from repro.gpu.config import GPUConfig


def make_stack_model(config: "GPUConfig", warp_index: int = 0) -> StackModel:
    """Build the stack model one warp slot uses under ``config``.

    ``warp_index`` must be unique per concurrently resident warp so that
    global spill regions and shared-memory blocks do not alias.
    """
    if config.rb_stack_entries is None:
        return FullStack(warp_size=config.warp_size)
    if config.sh_stack_entries == 0:
        return BaselineStack(
            rb_entries=config.rb_stack_entries,
            warp_size=config.warp_size,
            warp_index=warp_index,
        )
    from repro.stack.layout import SharedStackLayout

    # Shared memory is per-SM: the warp's slot within its RT unit picks its
    # block.  Global spill regions must be unique GPU-wide, so they key on
    # the full warp_index.
    slot = warp_index % config.max_warps_per_rt_unit
    block_bytes = SharedStackLayout(
        entries=config.sh_stack_entries, warp_size=config.warp_size
    ).total_bytes
    layout = SharedStackLayout(
        entries=config.sh_stack_entries,
        warp_size=config.warp_size,
        base_address=slot * block_bytes,
    )
    return SmsStack(
        rb_entries=config.rb_stack_entries,
        sh_entries=config.sh_stack_entries,
        warp_size=config.warp_size,
        skewed=config.skewed_bank_access,
        realloc=config.intra_warp_realloc,
        max_borrows=config.max_borrows,
        max_flushes=config.max_flushes,
        layout=layout,
        warp_index=warp_index,
    )
