"""Fig. 13 — the headline result: SMS IPC improvements per scene.

Paper (normalized to RB_8, averaged over scenes): +SH_8 = 1.151,
+SK = 1.194, +RA = 1.232, FULL = 1.253.  The key claims: each component
adds performance, complex scenes (ROBOT, PARK) and SHIP gain most,
simple scenes (REF, BATH) least, and the final design approaches the
impractical full stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.presets import baseline_config, full_stack_config, sms_config
from repro.experiments.common import mean_row, normalized_ipc
from repro.experiments.report import format_table
from repro.runtime.cache import CachedWorkloadCache

PAPER_MEANS = {
    "RB_8": 1.0,
    "RB_8+SH_8": 1.151,
    "RB_8+SH_8+SK": 1.194,
    "RB_8+SH_8+SK+RA": 1.232,
    "RB_FULL": 1.253,
}


@dataclass
class Fig13Result:
    """Per-scene and mean normalized IPC for the SMS ablation ladder."""

    per_scene: Dict[str, Dict[str, float]]
    means: Dict[str, float]


def run(cache: Optional[CachedWorkloadCache] = None) -> Fig13Result:
    """Run the four-config ladder plus FULL over the suite."""
    cache = cache or CachedWorkloadCache()
    configs = [
        baseline_config(),
        sms_config(skewed=False, realloc=False),
        sms_config(skewed=True, realloc=False),
        sms_config(skewed=True, realloc=True),
        full_stack_config(),
    ]
    results = cache.sweep(configs)
    per_scene = normalized_ipc(results, "RB_8")
    return Fig13Result(per_scene=per_scene, means=mean_row(per_scene))


def render(result: Fig13Result) -> str:
    """Per-scene bars plus the mean row, as in the paper's figure."""
    labels = [l for l in result.means if l != "RB_8"]
    rows = []
    for scene, values in result.per_scene.items():
        rows.append([scene] + [values[label] for label in labels])
    mean_cells = ["MEAN"] + [result.means[label] for label in labels]
    rows.append(mean_cells)
    paper_cells = ["PAPER"] + [PAPER_MEANS.get(label, float("nan")) for label in labels]
    rows.append(paper_cells)
    return format_table(
        ["scene"] + labels,
        rows,
        title="Fig. 13: IPC improvements of the SMS architecture "
        "(normalized to RB_8)",
    )
