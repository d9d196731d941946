"""Fig. 15 — impact of the primary RB stack size, with and without SMS.

(a) IPC and (b) off-chip memory accesses for RB sizes 2/4/8/16, each
with and without the full SMS design, normalized to the RB_8 baseline.
Paper headline: RB_2 alone loses 28.3% IPC and adds 62.3% off-chip
accesses; adding SMS recovers 39.7 PP of IPC and 79.2 PP of traffic —
so even a 2-entry primary stack with SMS beats the 8-entry baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.presets import baseline_config, sms_config
from repro.experiments.common import (
    geomean,
    mean_row,
    normalized_ipc,
)
from repro.experiments.report import format_table
from repro.runtime.cache import CachedWorkloadCache

RB_SIZES = (2, 4, 8, 16)
PAPER_IPC = {
    "RB_2": 0.717,
    "RB_4": 0.816,
    "RB_8": 1.0,
    "RB_16": 1.199,
    "RB_2+SH_8+SK+RA": 1.114,
}
PAPER_OFFCHIP = {"RB_2": 1.623, "RB_2+SH_8+SK+RA": 0.831}


@dataclass
class Fig15Result:
    """IPC and off-chip access ratios for the RB sweep, +/- SMS."""

    ipc_means: Dict[str, float]
    offchip_means: Dict[str, float]
    per_scene_ipc: Dict[str, Dict[str, float]]
    per_scene_offchip: Dict[str, Dict[str, float]]


def run(cache: Optional[CachedWorkloadCache] = None) -> Fig15Result:
    """Run the 8-config sweep (4 RB sizes x with/without SMS)."""
    cache = cache or CachedWorkloadCache()
    configs = []
    for size in RB_SIZES:
        configs.append(baseline_config(rb_entries=size))
        configs.append(sms_config(rb_entries=size))
    results = cache.sweep(configs)
    per_scene_ipc = normalized_ipc(results, "RB_8")
    per_scene_offchip: Dict[str, Dict[str, float]] = {}
    for scene, per_config in results.items():
        base = per_config["RB_8"].offchip_accesses
        per_scene_offchip[scene] = {
            label: (res.offchip_accesses / base if base else 0.0)
            for label, res in per_config.items()
        }
    offchip_means = {
        label: geomean(per_scene_offchip[s][label] for s in per_scene_offchip)
        for label in next(iter(per_scene_offchip.values()))
    }
    return Fig15Result(
        ipc_means=mean_row(per_scene_ipc),
        offchip_means=offchip_means,
        per_scene_ipc=per_scene_ipc,
        per_scene_offchip=per_scene_offchip,
    )


def render(result: Fig15Result) -> str:
    """Both panels as tables with the paper's values alongside."""
    rows = []
    for label in result.ipc_means:
        rows.append(
            (
                label,
                result.ipc_means[label],
                PAPER_IPC.get(label, float("nan")),
                result.offchip_means[label],
                PAPER_OFFCHIP.get(label, float("nan")),
            )
        )
    return format_table(
        ["config", "IPC (norm)", "paper IPC", "off-chip (norm)", "paper off-chip"],
        rows,
        title="Fig. 15: primary stack size impact, with and without SMS "
        "(normalized to RB_8)",
    )
