"""Named GPU configurations matching the paper's figure labels.

``RB_N`` — baseline with an N-entry ray-buffer stack, no SH stack.
``RB_N+SH_M`` — SMS with an M-entry shared-memory stack.
``+SK`` — skewed bank access; ``+RA`` — intra-warp reallocation.
``RB_FULL`` — unbounded on-chip stack (upper bound).

The paper's proposed design is ``RB_8+SH_8+SK+RA`` (56 KB L1D + 8 KB
shared memory out of the 64 KB unified SRAM).
"""

from __future__ import annotations

import re

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig


def baseline_config(rb_entries: int = 8, **overrides) -> GPUConfig:
    """The RB_N baseline: short on-chip stack spilling to global memory."""
    return GPUConfig(rb_stack_entries=rb_entries, sh_stack_entries=0, **overrides)


def full_stack_config(**overrides) -> GPUConfig:
    """RB_FULL: impractical full per-ray on-chip stack (upper bound)."""
    return GPUConfig(rb_stack_entries=None, sh_stack_entries=0, **overrides)


def sms_config(
    rb_entries: int = 8,
    sh_entries: int = 8,
    skewed: bool = True,
    realloc: bool = True,
    inter_warp: bool = False,
    **overrides,
) -> GPUConfig:
    """An SMS configuration; defaults to the paper's proposed design."""
    return GPUConfig(
        rb_stack_entries=rb_entries,
        sh_stack_entries=sh_entries,
        skewed_bank_access=skewed,
        intra_warp_realloc=realloc,
        inter_warp_realloc=inter_warp,
        **overrides,
    )


#: The paper's proposed configuration (section IV-B).
PAPER_DEFAULT_SMS = sms_config()


def table1_config(**overrides) -> GPUConfig:
    """The paper's Table I parameters with no memory-system scaling.

    The library default scales the L2 to the ~1:100-scaled stand-in
    scenes (see ``GPUConfig``); this preset restores the paper's absolute
    3 MB L2 for runs against full-size scenes or sensitivity studies.
    """
    overrides.setdefault("l2_bytes", 3 * 1024 * 1024)
    return GPUConfig(**overrides)

_NAME_PATTERN = re.compile(
    r"^RB_(?P<rb>FULL|\d+)(?:\+SH_(?P<sh>\d+))?"
    r"(?P<sk>\+SK)?(?P<ra>\+RA)?(?P<iw>\+IW)?$"
)


def named_config(name: str, **overrides) -> GPUConfig:
    """Parse a figure-style label like ``"RB_8+SH_8+SK+RA"`` into a config.

    Only canonical labels parse: the config built from the label must
    describe itself with that same label, so ``RB_8+SK`` (no SH stack to
    skew) and ``RB_08`` are rejected.
    """
    label = name.strip()
    match = _NAME_PATTERN.match(label)
    if not match:
        raise ConfigError(
            f"unrecognized configuration name {name!r} "
            "(expected e.g. RB_8, RB_FULL, RB_8+SH_8+SK+RA)"
        )
    rb = match.group("rb")
    config = GPUConfig(
        rb_stack_entries=None if rb == "FULL" else int(rb),
        sh_stack_entries=int(match.group("sh") or 0),
        skewed_bank_access=bool(match.group("sk")),
        intra_warp_realloc=bool(match.group("ra")),
        inter_warp_realloc=bool(match.group("iw")),
        **overrides,
    )
    if config.describe() != label:
        raise ConfigError(
            f"configuration name {name!r} is not canonical: the config it "
            f"names is {config.describe()!r}"
        )
    return config
