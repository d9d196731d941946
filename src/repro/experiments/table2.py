"""Table II — benchmark scene statistics.

Our stand-in scenes next to the paper's originals: triangle counts
(scaled ~1:100) and BVH memory footprints from the actual built BVHs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.bvh.api import build_bvh
from repro.bvh.stats import BVHStats, compute_stats
from repro.experiments.report import format_table
from repro.runtime.cache import CachedWorkloadCache
from repro.workloads.lumibench import load_scene, scene_recipe


@dataclass
class Table2Result:
    """Per-scene BVH statistics."""

    stats: Dict[str, BVHStats]


def run(cache: Optional[CachedWorkloadCache] = None) -> Table2Result:
    """Build every scene's BVH and collect statistics."""
    cache = cache or CachedWorkloadCache()
    stats = {
        name: compute_stats(build_bvh(load_scene(name)))
        for name in cache.names
    }
    return Table2Result(stats=stats)


def render(result: Table2Result) -> str:
    """The scene table with paper columns alongside."""
    rows = []
    for name, stats in result.stats.items():
        recipe = scene_recipe(name)
        rows.append(
            (
                name,
                stats.triangle_count,
                recipe.paper_triangles,
                f"{stats.megabytes:.2f}",
                f"{recipe.paper_bvh_mb:.1f}",
                stats.max_depth,
                f"{stats.leaf_ratio:.2f}",
            )
        )
    return format_table(
        ["scene", "tris (ours)", "tris (paper)", "BVH MB (ours)",
         "BVH MB (paper)", "depth", "leaf ratio"],
        rows,
        title="Table II: benchmark scenes (stand-ins at ~1:100 scale)",
    )
