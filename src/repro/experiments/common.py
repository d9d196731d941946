"""Shared experiment plumbing: config labels and IPC aggregation.

Drivers run their cells through a
:class:`~repro.runtime.cache.CachedWorkloadCache`; this module holds
what they do with the results.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.core.results import SimulationResult
from repro.gpu.config import GPUConfig


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional average for normalized IPC)."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def _unique_labels(configs: Sequence[GPUConfig]) -> List[str]:
    labels: List[str] = []
    for config in configs:
        label = config.describe()
        if label in labels:
            label = f"{label}#{len(labels)}"
        labels.append(label)
    return labels


def normalized_ipc(
    results: Dict[str, Dict[str, SimulationResult]], baseline_label: str
) -> Dict[str, Dict[str, float]]:
    """Per-scene IPC normalized to ``baseline_label`` (paper convention)."""
    normalized: Dict[str, Dict[str, float]] = {}
    for scene, per_scene in results.items():
        base = per_scene[baseline_label].ipc
        normalized[scene] = {
            label: (result.ipc / base if base else 0.0)
            for label, result in per_scene.items()
        }
    return normalized


def mean_row(per_scene: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Geometric-mean row across scenes for each config label."""
    if not per_scene:
        return {}
    labels = next(iter(per_scene.values())).keys()
    return {
        label: geomean(per_scene[scene][label] for scene in per_scene)
        for label in labels
    }
