"""The stack-based traversal strategy (the paper's architectures).

:class:`StackStrategy` wraps the existing stack models behind the
strategy interface and reproduces the old RTUnit constructor's
stack wiring exactly, so ``strategy="sms"`` is bit-identical to the
pre-strategy simulator (asserted by ``tests/traversal/test_bit_identity``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.stack.factory import make_stack_model
from repro.traversal.base import TraversalStrategy

if TYPE_CHECKING:
    from repro.gpu.config import GPUConfig
    from repro.stack.base import StackModel


class StackStrategy(TraversalStrategy):
    """Config-driven stack traversal — the default path.

    Builds exactly the stack models the RT unit used to construct for
    itself: one per-slot model from :mod:`repro.stack.factory`, or slot
    views over one shared inter-warp model when the configuration enables
    inter-warp reallocation.  Which of RB/SH/full/interwarp runs is still
    the configuration's choice, so one strategy name covers the whole
    paper ladder (``RB_8`` through ``RB_8+SH_8+SK+RA``).
    """

    name = "sms"

    def make_unit_stacks(
        self, config: "GPUConfig", sm_id: int = 0
    ) -> List["StackModel"]:
        if config.inter_warp_realloc and config.rb_stack_entries is not None:
            # One shared stack model spans every warp slot of the unit so
            # lanes can borrow SH regions across warps (the design the
            # paper rejects; see repro.stack.interwarp).
            from repro.stack.interwarp import InterWarpSmsStack, SlotView

            shared = InterWarpSmsStack(
                rb_entries=config.rb_stack_entries,
                sh_entries=config.sh_stack_entries,
                slots=config.max_warps_per_rt_unit,
                lanes_per_warp=config.warp_size,
                skewed=config.skewed_bank_access,
                max_borrows=config.max_borrows,
                max_flushes=config.max_flushes,
                unit_index=sm_id,
            )
            return [
                SlotView(shared, slot)
                for slot in range(config.max_warps_per_rt_unit)
            ]
        return [
            make_stack_model(
                config,
                warp_index=sm_id * config.max_warps_per_rt_unit + slot,
            )
            for slot in range(config.max_warps_per_rt_unit)
        ]

