"""Energy comparison of the stack architectures.

Not a paper figure, but the paper's recurring motivation: on-chip storage
and off-chip traffic are the power-hungry pieces ([14], [16], [22], [26]).
This study applies the per-event energy model to the same sweep as
Fig. 13 and reports total and stack-only energy, normalized to RB_8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.presets import baseline_config, full_stack_config, sms_config
from repro.experiments.common import geomean
from repro.experiments.report import format_table
from repro.gpu.energy import EnergyModel, estimate_energy
from repro.runtime.cache import CachedWorkloadCache


@dataclass
class EnergyStudyResult:
    """Normalized energy per configuration (geomean over scenes)."""

    total_energy: Dict[str, float]
    stack_energy_share: Dict[str, float]  # stack energy / total, per config


def run(cache: Optional[CachedWorkloadCache] = None) -> EnergyStudyResult:
    """Run the Fig. 13 ladder and convert counters to energy."""
    cache = cache or CachedWorkloadCache()
    configs = [
        baseline_config(),
        sms_config(skewed=False, realloc=False),
        sms_config(skewed=True, realloc=True),
        full_stack_config(),
    ]
    results = cache.sweep(configs)
    model = EnergyModel()

    labels = list(next(iter(results.values())).keys())
    ratios: Dict[str, list] = {label: [] for label in labels}
    shares: Dict[str, list] = {label: [] for label in labels}
    for scene, per_config in results.items():
        base_report = estimate_energy(per_config["RB_8"].counters, model)
        for label, result in per_config.items():
            report = estimate_energy(result.counters, model)
            ratios[label].append(report.total_nj / base_report.total_nj)
            shares[label].append(
                report.stack_nj / report.total_nj if report.total_nj else 0.0
            )
    return EnergyStudyResult(
        total_energy={label: geomean(values) for label, values in ratios.items()},
        stack_energy_share={
            label: sum(values) / len(values) for label, values in shares.items()
        },
    )


def render(result: EnergyStudyResult) -> str:
    """Energy table normalized to the baseline."""
    rows = [
        (
            label,
            result.total_energy[label],
            f"{result.stack_energy_share[label]:.1%}",
        )
        for label in result.total_energy
    ]
    return format_table(
        ["config", "energy (norm to RB_8)", "stack share of energy"],
        rows,
        title="Energy study: traversal memory-system energy per configuration",
    )
