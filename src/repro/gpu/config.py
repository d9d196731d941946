"""Simulator configuration (paper Table I plus SMS knobs).

The baseline models the mobile-SoC GPU of the original Vulkan-Sim work:
8 SMs, one RT unit per SM holding up to 4 warps of 32 threads, a 64 KB
unified L1D/shared-memory SRAM (20-cycle), a 3 MB 16-way L2 (160-cycle)
and DRAM behind it.  The SMS carve-out follows the paper: shared memory
is sized to exactly what the SH stacks need, the remainder stays L1D
(e.g. the default RB_8+SH_8 design uses 8 KB shared + 56 KB L1D).

:data:`FIELD_DOMAINS` declares the values each field accepts, once:
``GPUConfig`` checks every field against it, and ``repro ablate`` sweeps
exactly these fields with exactly these domains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Optional, Tuple

from repro.errors import ConfigError
from repro.gpu.cache import cache_lines

KB = 1024
MB = 1024 * KB


class FieldDomain(NamedTuple):
    """The values one :class:`GPUConfig` field accepts.

    ``kind`` is ``bool``, ``int`` or ``str``.  An ``int`` field takes
    integers of at least ``low``, a ``str`` field one of ``choices``,
    and an ``int`` field with ``choices`` only those; ``nullable``
    admits ``None`` as well.
    """

    kind: type
    low: int = 0
    choices: Tuple = ()
    nullable: bool = False


#: The domain of every :class:`GPUConfig` field, in field order.  Cycle
#: costs may be zero; latencies, sizes and counts may not.
FIELD_DOMAINS: Dict[str, FieldDomain] = {
    "num_sms": FieldDomain(int, low=1),
    "warp_size": FieldDomain(int, low=1),
    # GPUSimulator builds one RT unit per SM (Table I); the field stays
    # because job keys digest every field.
    "rt_units_per_sm": FieldDomain(int, low=1, choices=(1,)),
    "max_warps_per_rt_unit": FieldDomain(int, low=1),
    "rb_stack_entries": FieldDomain(int, low=1, nullable=True),
    "sh_stack_entries": FieldDomain(int, low=0),
    "skewed_bank_access": FieldDomain(bool),
    "intra_warp_realloc": FieldDomain(bool),
    "inter_warp_realloc": FieldDomain(bool),
    "max_borrows": FieldDomain(int, low=1),
    "max_flushes": FieldDomain(int, low=0),
    "unified_cache_bytes": FieldDomain(int, low=128),
    "l1_latency": FieldDomain(int, low=1),
    "line_bytes": FieldDomain(int, low=16),
    "l2_bytes": FieldDomain(int, low=128),
    "l2_assoc": FieldDomain(int, low=1),
    "l2_latency": FieldDomain(int, low=1),
    "l2_service_cycles": FieldDomain(int, low=1),
    "dram_latency": FieldDomain(int, low=1),
    "dram_service_cycles": FieldDomain(int, low=1),
    "shared_latency": FieldDomain(int, low=1),
    "bank_conflict_penalty": FieldDomain(int, low=0),
    "l1_port_cycles": FieldDomain(int, low=0),
    "shared_port_cycles": FieldDomain(int, low=0),
    "box_test_cycles": FieldDomain(int, low=0),
    "tri_test_cycles": FieldDomain(int, low=0),
    "spill_cache_policy": FieldDomain(str, choices=("uncached", "l2", "l1")),
    "shader_pollution_lines": FieldDomain(int, low=0),
    "l1d_bytes_override": FieldDomain(int, low=1, nullable=True),
}


def check_field(name: str, value) -> None:
    """Raise :class:`ConfigError` unless ``value`` is in ``name``'s domain."""
    kind, low, choices, nullable = FIELD_DOMAINS[name]
    if value is None:
        if not nullable:
            raise ConfigError(f"{name} does not accept null")
        return
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name} expects true/false, got {value!r}")
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} expects an integer, got {value!r}")
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    if choices and value not in choices:
        raise ConfigError(
            f"{name} must be one of {', '.join(map(repr, choices))}, "
            f"got {value!r}"
        )


@dataclass(frozen=True)
class GPUConfig:
    """Full parameter set of the simulated GPU.

    ``rb_stack_entries=None`` selects the RB_FULL upper bound.
    ``sh_stack_entries=0`` disables the SH stack (pure baseline).
    """

    # General organization (Table I).
    num_sms: int = 8
    warp_size: int = 32
    rt_units_per_sm: int = 1
    max_warps_per_rt_unit: int = 4

    # Traversal stack architecture.
    rb_stack_entries: Optional[int] = 8
    sh_stack_entries: int = 0
    skewed_bank_access: bool = False
    intra_warp_realloc: bool = False
    # Inter-warp reallocation: the design the paper rejects (section V-B).
    # Lanes may borrow idle SH regions from *any* warp slot of the RT
    # unit; measured by the ``inter_warp`` knob space.
    inter_warp_realloc: bool = False
    max_borrows: int = 4
    max_flushes: int = 3

    # Unified on-chip SRAM: L1D + shared memory carve-out.
    unified_cache_bytes: int = 64 * KB
    l1_latency: int = 20
    line_bytes: int = 128

    # L2 and DRAM.  The default L2 is scaled down from Table I's 3 MB in
    # proportion to the ~1:100-scaled scenes, preserving the paper's
    # working-set-to-cache ratio (BVHs 30-600x the L2); use
    # ``table1_config()`` for the paper's absolute parameters.
    l2_bytes: int = 256 * KB
    l2_assoc: int = 16
    l2_latency: int = 160
    # Per-SM share of the shared L2's port bandwidth: cycles one line-sized
    # access occupies the port.  This is what makes the L1D hit rate matter
    # (paper Fig. 6b) — every L1 miss consumes L2 bandwidth.
    l2_service_cycles: int = 16
    dram_latency: int = 220
    dram_service_cycles: int = 1

    # Shared memory timing.
    shared_latency: int = 20
    bank_conflict_penalty: int = 4

    # Port/issue occupancy: cycles each transaction holds the memory
    # pipeline (not hidden by multi-warp overlap).  Global accesses to
    # thread-specific spill addresses cannot coalesce (paper II-C), so
    # every line is a separate L1 transaction; a conflict-free shared
    # access serves the whole warp in one banked transaction.
    l1_port_cycles: int = 2
    shared_port_cycles: int = 1

    # Operation unit latencies.
    box_test_cycles: int = 1
    tri_test_cycles: int = 2

    # Cache policy for thread-local spill traffic: "uncached" (straight to
    # DRAM), "l2" (bypass L1 only) or "l1" (fully cached).  The paper's
    # full-scale runs stream BVHs 30-600x the L2 through the hierarchy, so
    # spilled stack lines essentially never survive any cache between
    # spill and reload (Fig. 15b: off-chip accesses track spill counts
    # almost 1:1).  At our ~100x-scaled-down scene sizes cached spills
    # would artificially stay resident and hide the cost the paper
    # measures, so "uncached" reproduces the paper's regime; the other
    # modes exist for the small-scene ablation.
    spill_cache_policy: str = "uncached"

    # Background L1 pressure from the SM's sub-cores: the unified L1D is
    # shared with shading/texture traffic that Vulkan-Sim simulates and
    # this model abstracts.  Each warp traversal iteration allocates this
    # many foreign lines in the L1 that are never re-read (their latency
    # belongs to the shader pipeline, not the RT unit's critical path).
    # Documented as a substitution in DESIGN.md.
    shader_pollution_lines: int = 48

    # Explicit L1D override for the Fig. 6b study (None = derived).
    l1d_bytes_override: Optional[int] = None

    def __post_init__(self) -> None:
        for name in FIELD_DOMAINS:
            check_field(name, getattr(self, name))
        if self.sh_stack_entries and self.rb_stack_entries is None:
            raise ConfigError("RB_FULL does not combine with an SH stack")
        if self.unified_cache_bytes < self.line_bytes:
            raise ConfigError("unified cache must hold at least one line")
        if self.inter_warp_realloc and self.sh_stack_entries == 0:
            raise ConfigError("inter_warp_realloc requires an SH stack")
        if self.shared_memory_bytes > self.unified_cache_bytes:
            raise ConfigError(
                f"SH stacks need {self.shared_memory_bytes} B of shared memory, "
                f"more than the {self.unified_cache_bytes} B unified SRAM"
            )
        # The cache models' own geometry check, so a job never fails on it.
        cache_lines(self.l1d_bytes, self.line_bytes, "L1D")
        cache_lines(self.l2_bytes, self.line_bytes, "L2", self.l2_assoc)

    @property
    def shared_memory_bytes(self) -> int:
        """Shared memory carved out of the unified SRAM for SH stacks."""
        if self.sh_stack_entries == 0:
            return 0
        from repro.stack.layout import SharedStackLayout

        per_warp = SharedStackLayout(
            entries=self.sh_stack_entries, warp_size=self.warp_size
        ).total_bytes
        return per_warp * self.max_warps_per_rt_unit

    @property
    def l1d_bytes(self) -> int:
        """L1D capacity: unified SRAM minus the shared-memory carve-out."""
        if self.l1d_bytes_override is not None:
            return self.l1d_bytes_override
        return self.unified_cache_bytes - self.shared_memory_bytes

    @property
    def threads_per_rt_unit(self) -> int:
        """Concurrent threads (rays) per RT unit."""
        return self.warp_size * self.max_warps_per_rt_unit

    def with_(self, **changes) -> "GPUConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """The configuration label used in the paper's figures."""
        if self.rb_stack_entries is None:
            return "RB_FULL"
        label = f"RB_{self.rb_stack_entries}"
        if self.sh_stack_entries:
            label += f"+SH_{self.sh_stack_entries}"
            if self.skewed_bank_access:
                label += "+SK"
            if self.intra_warp_realloc:
                label += "+RA"
            if self.inter_warp_realloc:
                label += "+IW"
        return label
