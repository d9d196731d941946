"""Fig. 4 — maximum, average and median stack depth per workload.

The paper measures depth at every push/pop across all rays and reports,
per scene, the maximum (~30 in the worst case), the average (4-5) and the
median.  This motivates the whole design: an 8-entry stack covers the
common case but the tail overflows constantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.report import format_table
from repro.runtime.cache import CachedWorkloadCache
from repro.trace.depth import DepthStats, depth_statistics


@dataclass
class Fig4Result:
    """Per-scene depth statistics plus the all-scene aggregate."""

    per_scene: Dict[str, DepthStats]
    overall: DepthStats


def run(cache: Optional[CachedWorkloadCache] = None) -> Fig4Result:
    """Compute the figure's data over the workload suite."""
    cache = cache or CachedWorkloadCache()
    per_scene: Dict[str, DepthStats] = {}
    all_traces = []
    for name in cache.names:
        traces = cache.traced(name)
        per_scene[name] = depth_statistics(traces)
        all_traces.extend(traces)
    return Fig4Result(per_scene=per_scene, overall=depth_statistics(all_traces))


def render(result: Fig4Result) -> str:
    """The figure's bar values as a table."""
    rows = [
        (name, stats.max_depth, stats.avg_depth, stats.median_depth)
        for name, stats in result.per_scene.items()
    ]
    rows.append(
        (
            "ALL",
            result.overall.max_depth,
            result.overall.avg_depth,
            result.overall.median_depth,
        )
    )
    return format_table(
        ["scene", "max", "avg", "median"],
        rows,
        title="Fig. 4: traversal stack depth per workload "
        "(paper: avg/median 4-5, max ~30)",
    )
