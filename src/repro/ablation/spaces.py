"""Named knob spaces: the repository's knob studies, declared.

Each study that varies ``GPUConfig`` knobs over the scene suite is one
declaration here; ``repro ablate run --space <name>`` (or
:func:`named_space` in code) expands, executes and analyzes it through
the one engine.  The paper's figures keep their drivers
(``repro experiment figN``).  Range order follows the off->on
convention the importance analysis assumes (first value = mechanism
removed, last = full strength).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import AblationError
from repro.ablation.space import KnobSpace


def _mechanisms() -> KnobSpace:
    """The headline attribution: SH tier vs skewing vs reallocation.

    2^3 corners around the paper's proposed design.  LOO from
    RB_8+SH_8+SK+RA answers "how much of the +21.9% does each
    mechanism carry"; OAT from RB_8 answers what each buys alone.
    """
    return KnobSpace(
        name="mechanisms",
        fixed={"rb_stack_entries": 8},
        ranges={
            "sh_stack_entries": [0, 8],
            "skewed_bank_access": [False, True],
            "intra_warp_realloc": [False, True],
        },
    )


def _bounds() -> KnobSpace:
    """The paper's fixed-by-heuristic limits: borrow and flush caps.

    Section VI-B fixes 4 borrows and 3 flushes.  The ``max_flushes=3``
    line sweeps the borrow limit and the ``max_borrows=4`` line the
    flush limit.  Zero borrows, reallocation off, is not a point here:
    it is Fig. 13's RB_8+SH_8+SK bar.
    """
    return KnobSpace(
        name="bounds",
        fixed={
            "rb_stack_entries": 8,
            "sh_stack_entries": 8,
            "skewed_bank_access": True,
            "intra_warp_realloc": True,
        },
        ranges={
            "max_borrows": [1, 2, 4, 8],
            "max_flushes": [0, 1, 3, 6],
        },
    )


def _skew() -> KnobSpace:
    """Skewed bank access at every SH size (section V-A's claim).

    Reallocation stays off, so each size's skew-off/skew-on pair
    differs in the bank mapping alone; the cut in
    ``bank_conflict_delay_cycles`` is Fig. 14's measure per size.
    """
    return KnobSpace(
        name="skew",
        fixed={"rb_stack_entries": 8, "intra_warp_realloc": False},
        ranges={
            "sh_stack_entries": [4, 8, 16],
            "skewed_bank_access": [False, True],
        },
    )


def _spill_policy() -> KnobSpace:
    """Baseline IPC under each spill cacheability, against uncached.

    How much of the baseline's loss needs spills that reach DRAM, the
    scale regime DESIGN.md section 2 documents.
    """
    return KnobSpace(
        name="spill_policy",
        fixed={"rb_stack_entries": 8},
        ranges={"spill_cache_policy": ["uncached", "l2", "l1"]},
    )


def _occupancy() -> KnobSpace:
    """Baseline IPC vs resident warps per RT unit (Table I fixes 4).

    Multi-warp overlap is what turns spill latency into a bandwidth
    cost; speedups are against one warp.
    """
    return KnobSpace(
        name="occupancy",
        fixed={"rb_stack_entries": 8},
        ranges={"max_warps_per_rt_unit": [1, 2, 4, 8]},
    )


def _inter_warp() -> KnobSpace:
    """Inter-warp reallocation, the design section V-B rejects.

    ``inter_warp_realloc``'s LOO delta is its gain at RB_8+SH_8, the
    paper's design point; its OAT delta is its gain at the starved
    RB_2+SH_2.
    """
    return KnobSpace(
        name="inter_warp",
        fixed={"skewed_bank_access": True, "intra_warp_realloc": True},
        ranges={
            "rb_stack_entries": [2, 8],
            "sh_stack_entries": [2, 8],
            "inter_warp_realloc": [False, True],
        },
    )


def _sram_pareto() -> KnobSpace:
    """The IPC-vs-SRAM design space: RB x SH sizing x mechanisms."""
    return KnobSpace(
        name="sram_pareto",
        fixed={},
        ranges={
            "rb_stack_entries": [4, 8, 16],
            "sh_stack_entries": [0, 4, 8, 16],
            "skewed_bank_access": [False, True],
            "intra_warp_realloc": [False, True],
        },
    )


#: Name -> builder for every declared space.
_SPACES = {
    "mechanisms": _mechanisms,
    "bounds": _bounds,
    "skew": _skew,
    "spill_policy": _spill_policy,
    "occupancy": _occupancy,
    "inter_warp": _inter_warp,
    "sram_pareto": _sram_pareto,
}


def available_spaces() -> List[str]:
    """Sorted names of the declared spaces."""
    return sorted(_SPACES)


def named_space(name: str) -> KnobSpace:
    """Resolve a declared space by name."""
    builder = _SPACES.get(name.lower().strip())
    if builder is None:
        raise AblationError(
            f"unknown knob space {name!r}; declared spaces: "
            f"{', '.join(available_spaces())} (or pass a JSON file path)"
        )
    return builder()


def resolve_space(spec: str) -> KnobSpace:
    """A declared space name, or a path to a knob-space JSON file.

    Names resolve first; anything that looks like a path (a separator,
    a ``.json`` suffix, or an existing file) loads as a file.  A bare
    name that is neither gets the unknown-space message — with the
    declared catalog in it — rather than a file-system error.
    """
    from pathlib import Path

    cleaned = spec.lower().strip()
    if cleaned in _SPACES:
        return named_space(spec)
    looks_like_path = (
        "/" in spec or "\\" in spec or cleaned.endswith(".json")
        or Path(spec).exists()
    )
    if not looks_like_path:
        raise AblationError(
            f"unknown knob space {spec!r}; declared spaces: "
            f"{', '.join(available_spaces())} (or pass a JSON file path)"
        )
    from repro.ablation.space import load_space

    return load_space(spec)


def space_catalog() -> Dict[str, str]:
    """Name -> one-line description (for ``repro ablate run --list``)."""
    catalog: Dict[str, str] = {}
    for name in available_spaces():
        doc = _SPACES[name].__doc__ or ""
        catalog[name] = doc.strip().splitlines()[0] if doc.strip() else ""
    return catalog
