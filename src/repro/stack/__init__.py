"""Traversal stack architectures.

Every design the paper discusses lives here, behind one interface
(:class:`repro.stack.base.StackModel`):

* :class:`~repro.stack.reference.ReferenceStack` — unbounded logical stack,
  the correctness oracle for property tests.
* :class:`~repro.stack.full.FullStack` — RB_FULL: per-ray stack entirely in
  on-chip storage (impractical in hardware; the paper's upper bound).
* :class:`~repro.stack.baseline.BaselineStack` — RB_N short stack spilling
  directly to thread-local global memory (paper Fig. 3).
* :class:`~repro.stack.sms.SmsStack` — the paper's contribution: RB stack
  backed by a circular-queue shared-memory stack, with optional skewed bank
  access and dynamic intra-warp reallocation.

Stack operations return explicit :class:`~repro.stack.ops.MemoryOp` chains;
the timing model (``repro.gpu``) prices them, so these classes stay purely
architectural.
"""

from repro.stack.ops import MemSpace, OpKind, MemoryOp, StackActivity
from repro.stack.layout import SharedStackLayout
from repro.stack.skew import base_entry_index
from repro.stack.base import StackModel
from repro.stack.reference import ReferenceStack
from repro.stack.full import FullStack
from repro.stack.baseline import BaselineStack
from repro.stack.sms import SmsStack
from repro.stack.interwarp import InterWarpSmsStack, SlotView
from repro.stack.factory import make_stack_model

__all__ = [
    "MemSpace",
    "OpKind",
    "MemoryOp",
    "StackActivity",
    "SharedStackLayout",
    "base_entry_index",
    "StackModel",
    "ReferenceStack",
    "FullStack",
    "BaselineStack",
    "SmsStack",
    "InterWarpSmsStack",
    "SlotView",
    "make_stack_model",
]
