"""Fig. 5 — average stack-depth distribution across all workloads.

The paper's summary: depths 1-8 cover ~81% of traversal steps, 9-16
another 17.0%, and only 1.9% exceed 16 — the quantitative basis for the
8-entry SH stack choice (8 RB + 8 SH covers 98% of steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import format_table
from repro.runtime.cache import CachedWorkloadCache
from repro.trace.depth import bucket_fractions, depth_histogram

#: The paper's summary buckets.
BUCKETS: Tuple[Tuple[int, int], ...] = ((1, 8), (9, 16), (17, 10**9))
PAPER_FRACTIONS = (0.811, 0.170, 0.019)


@dataclass
class Fig5Result:
    """Depth histogram and bucket fractions."""

    histogram: Dict[int, int]
    fractions: List[float]
    per_scene_fractions: Dict[str, List[float]]


def run(cache: Optional[CachedWorkloadCache] = None) -> Fig5Result:
    """Aggregate depth histogram over the workload suite."""
    cache = cache or CachedWorkloadCache()
    combined: Dict[int, int] = {}
    per_scene: Dict[str, List[float]] = {}
    for name in cache.names:
        histogram = depth_histogram(cache.traced(name))
        per_scene[name] = bucket_fractions(histogram, BUCKETS)
        for depth, count in histogram.items():
            combined[depth] = combined.get(depth, 0) + count
    return Fig5Result(
        histogram=combined,
        fractions=bucket_fractions(combined, BUCKETS),
        per_scene_fractions=per_scene,
    )


def render(result: Fig5Result) -> str:
    """Bucket fractions next to the paper's values, plus the histogram."""
    rows = []
    labels = ["1-8", "9-16", ">16"]
    for label, measured, paper in zip(labels, result.fractions, PAPER_FRACTIONS):
        rows.append((label, f"{measured:.1%}", f"{paper:.1%}"))
    table = format_table(
        ["depth bucket", "measured", "paper"],
        rows,
        title="Fig. 5: stack depth distribution across all workloads",
    )
    total = sum(c for d, c in result.histogram.items() if d >= 1)
    hist_rows = [
        (depth, count, f"{count / total:.2%}")
        for depth, count in sorted(result.histogram.items())
        if depth >= 1
    ]
    histogram = format_table(
        ["depth", "samples", "fraction"], hist_rows, title="full histogram"
    )
    return table + "\n\n" + histogram
