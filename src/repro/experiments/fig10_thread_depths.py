"""Fig. 10 — per-thread stack depth over time for PARTY warps.

The paper's heatmap shows, for two warps of the PARTY scene, each
thread's stack depth at every stack access: threads finish at different
times and need very different peak depths — the two observations that
motivate dynamic intra-warp reallocation.  We regenerate the underlying
matrix (threads x accesses, value = depth) and summarize the imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.experiments.report import format_table
from repro.runtime.cache import CachedWorkloadCache
from repro.trace.depth import per_thread_depth_series


@dataclass
class Fig10Result:
    """Depth series for the sampled warps plus imbalance metrics."""

    scene: str
    warp_series: List[List[List[int]]]  # warp -> lane -> depth profile
    finish_spread: float  # ratio of shortest to longest lane profile
    peak_spread: float    # ratio of smallest to largest peak depth


def run(
    cache: Optional[CachedWorkloadCache] = None,
    scene: str = "PARTY",
    warps: int = 2,
    warp_size: int = 32,
) -> Fig10Result:
    """Extract per-lane depth series for the ``warps`` busiest warps.

    The paper plots two representative warps; picking the busiest ones
    skips warps whose rays all miss the scene (e.g. image corners).
    """
    cache = cache or CachedWorkloadCache(scene_names=[scene])
    series = per_thread_depth_series(cache.traced(scene))
    groups = [
        series[start : start + warp_size]
        for start in range(0, len(series), warp_size)
    ]
    groups.sort(key=lambda lanes: -sum(len(lane) for lane in lanes))
    warp_series: List[List[List[int]]] = [
        lanes for lanes in groups[:warps] if lanes
    ]
    lengths = [len(lane) for warp in warp_series for lane in warp if lane]
    peaks = [max(lane) for warp in warp_series for lane in warp if lane]
    finish_spread = min(lengths) / max(lengths) if lengths else 0.0
    peak_spread = min(peaks) / max(peaks) if peaks else 0.0
    return Fig10Result(
        scene=scene,
        warp_series=warp_series,
        finish_spread=finish_spread,
        peak_spread=peak_spread,
    )


def render(result: Fig10Result) -> str:
    """An ASCII rendering of the heatmap plus imbalance summary."""
    lines = [
        f"Fig. 10: per-thread stack depth across accesses ({result.scene})",
        f"finish-time spread (shortest/longest lane): {result.finish_spread:.2f}",
        f"peak-depth spread (smallest/largest peak):  {result.peak_spread:.2f}",
        "",
    ]
    glyphs = " .:-=+*#%@"
    for w, warp in enumerate(result.warp_series):
        lines.append(f"warp {w} (rows = threads, columns = stack accesses):")
        width = max((len(lane) for lane in warp), default=0)
        step = max(1, width // 64)
        for lane_index, lane in enumerate(warp):
            cells = []
            for x in range(0, width, step):
                if x < len(lane):
                    depth = lane[x]
                    cells.append(glyphs[min(len(glyphs) - 1, depth * (len(glyphs) - 1) // 30)])
                else:
                    cells.append(" ")
            lines.append(f"  t{lane_index:02d} |{''.join(cells)}|")
        lines.append("")
    rows = []
    for w, warp in enumerate(result.warp_series):
        peaks = [max(lane) if lane else 0 for lane in warp]
        lengths = [len(lane) for lane in warp]
        rows.append(
            (
                f"warp {w}",
                int(np.max(peaks)),
                float(np.mean(peaks)),
                int(np.max(lengths)),
                int(np.min(lengths)),
            )
        )
    lines.append(
        format_table(
            ["warp", "max peak", "mean peak", "longest", "shortest"],
            rows,
            title="imbalance summary",
        )
    )
    return "\n".join(lines)
