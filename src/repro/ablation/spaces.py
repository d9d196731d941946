"""Named knob spaces: the paper's sweeps as declared design spaces.

What used to be one hand-written experiment driver per figure becomes
one declaration each; ``repro ablate run --space <name>`` (or
:func:`named_space` in code) expands, executes and analyzes it through
the same engine.  Range order follows the off->on convention the
importance analysis assumes (first value = mechanism removed, last =
full strength).
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


def _fig8() -> KnobSpace:
    """Fig. 8: plain SH stack sizing, without skewing or reallocation.

    The same four configs as the ``fig8`` driver's RB_8 and RB_8+SH_n
    bars; its RB_FULL bar is not a knob setting, so it stays outside.
    """
    return KnobSpace(
        name="fig8",
        fixed={
            "rb_stack_entries": 8,
            "skewed_bank_access": False,
            "intra_warp_realloc": False,
        },
        ranges={"sh_stack_entries": [0, 4, 8, 16]},
    )


def _fig15() -> KnobSpace:
    """Fig. 15: baseline ray-buffer sizing (spill pressure vs RB size)."""
    return KnobSpace(
        name="fig15",
        fixed={"sh_stack_entries": 0},
        ranges={"rb_stack_entries": [2, 4, 8, 16, 32]},
    )


def _bounds() -> KnobSpace:
    """The paper's fixed-by-heuristic limits: borrow and flush caps."""
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


#: Name -> builder for every declared paper space.
_SPACES = {
    "mechanisms": _mechanisms,
    "fig8": _fig8,
    "fig15": _fig15,
    "bounds": _bounds,
    "sram_pareto": _sram_pareto,
}


def available_spaces() -> List[str]:
    """Sorted names of the declared paper spaces."""
    return sorted(_SPACES)


def named_space(name: str) -> KnobSpace:
    """Resolve a declared paper space by name."""
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
