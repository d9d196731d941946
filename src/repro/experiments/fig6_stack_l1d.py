"""Fig. 6 — IPC under varying (a) RB stack sizes and (b) L1D sizes.

Paper values, normalized to RB_8 / 64 KB: stacks {4: 0.816, 16: 1.199,
32: 1.252}; L1D {16KB: 0.904, 32KB: 0.955, 128KB: 1.045, 256KB: 1.126}.
The asymmetry between the two sweeps — 8 KB more stack beats 192 KB more
L1D — is the paper's core motivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.presets import baseline_config
from repro.experiments.common import (
    mean_row,
    normalized_ipc,
)
from repro.experiments.report import format_bar_series, format_table
from repro.runtime.cache import CachedWorkloadCache

KB = 1024

#: RB stack sizes of Fig. 6a (None = the paper's "FULL" bar).
STACK_SIZES = (4, 8, 16, 32)
#: L1D sizes of Fig. 6b; the library default 64 KB is scaled alongside
#: the suite's scenes, so the sweep keeps the paper's 4x around it.
L1D_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)

PAPER_STACK = {"RB_4": 0.816, "RB_8": 1.0, "RB_16": 1.199, "RB_32": 1.252}
PAPER_L1D = {"x0.25": 0.904, "x0.5": 0.955, "x1.0": 1.0, "x2.0": 1.045, "x4.0": 1.126}


@dataclass
class Fig6Result:
    """Geomean normalized IPC for both sweeps."""

    stack_sweep: Dict[str, float]
    l1d_sweep: Dict[str, float]
    per_scene_stack: Dict[str, Dict[str, float]]
    per_scene_l1d: Dict[str, Dict[str, float]]


def run(cache: Optional[CachedWorkloadCache] = None) -> Fig6Result:
    """Run both sweeps over the workload suite."""
    cache = cache or CachedWorkloadCache()

    stack_configs = [baseline_config(rb_entries=n) for n in STACK_SIZES]
    stack_results = cache.sweep(stack_configs)
    per_scene_stack = normalized_ipc(stack_results, "RB_8")

    base = baseline_config()
    l1d_configs = []
    for factor in L1D_FACTORS:
        l1d_configs.append(
            base.with_(
                l1d_bytes_override=int(base.unified_cache_bytes * factor)
            )
        )
    l1d_results = cache.sweep(l1d_configs)
    # All l1d configs share the RB_8 label; they were disambiguated with
    # index suffixes, the x1.0 run being the baseline.
    labels = list(next(iter(l1d_results.values())).keys())
    baseline_label = labels[L1D_FACTORS.index(1.0)]
    per_scene_l1d_raw = normalized_ipc(l1d_results, baseline_label)
    per_scene_l1d = {
        scene: {
            f"x{factor}": values[label]
            for factor, label in zip(L1D_FACTORS, labels)
        }
        for scene, values in per_scene_l1d_raw.items()
    }
    return Fig6Result(
        stack_sweep=mean_row(per_scene_stack),
        l1d_sweep=mean_row(per_scene_l1d),
        per_scene_stack=per_scene_stack,
        per_scene_l1d=per_scene_l1d,
    )


def render(result: Fig6Result) -> str:
    """Both sweeps as tables with the paper's values alongside."""
    stack_rows = [
        (label, value, PAPER_STACK.get(label, float("nan")))
        for label, value in result.stack_sweep.items()
    ]
    l1d_rows = [
        (label, value, PAPER_L1D.get(label, float("nan")))
        for label, value in result.l1d_sweep.items()
    ]
    part_a = format_table(
        ["config", "IPC (norm)", "paper"],
        stack_rows,
        title="Fig. 6a: IPC vs RB stack size (normalized to RB_8)",
    )
    part_b = format_table(
        ["L1D scale", "IPC (norm)", "paper"],
        l1d_rows,
        title="Fig. 6b: IPC vs L1D size (normalized to the default)",
    )
    bars = format_bar_series(result.stack_sweep, title="Fig. 6a bars")
    return part_a + "\n\n" + part_b + "\n\n" + bars
