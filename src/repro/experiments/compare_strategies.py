"""Head-to-head traversal-strategy comparison across the workload suite.

The comparison the subsystem exists for: run any subset of registered
traversal strategies (:mod:`repro.traversal`) over the Table II scenes
from one base configuration and tabulate, per scene and aggregated, the
quantities the paper argues about — IPC, stack/spill traffic, L1D and
DRAM bytes, and memory-system energy.  Each strategy adapts the base
configuration its own way (stackless returns the SH carve-out to the
L1D; sms and reorder keep it), so the table compares *architectures* at
equal SRAM budget, not just stack parameters.

Every (scene, strategy) cell is one content-addressed
:class:`~repro.runtime.job.SimulationJob` (strategy folded into the
key), resolved by the cache's ``run_jobs``: its policy sizes the pool
and its store turns repeat runs into hits.

CLI: ``repro compare --strategies sms,stackless,reorder``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.results import SimulationResult
from repro.experiments.common import geomean
from repro.experiments.report import format_table
from repro.gpu.config import GPUConfig
from repro.gpu.energy import estimate_energy
from repro.runtime.cache import CachedWorkloadCache
from repro.traversal import resolve_strategy

#: The default head-to-head: the paper's architecture vs the two
#: alternatives the subsystem adds.
DEFAULT_STRATEGIES = ("sms", "stackless", "reorder")


@dataclass
class StrategyComparison:
    """Per-scene results of one strategy sweep."""

    strategies: List[str]
    base_label: str
    #: scene -> strategy name -> result.
    per_scene: Dict[str, Dict[str, SimulationResult]]


def _metrics(result: SimulationResult) -> Dict[str, float]:
    """The table row for one (scene, strategy) cell."""
    counters = result.counters
    line_bytes = result.config.line_bytes
    energy = estimate_energy(counters, num_sms=result.config.num_sms)
    return {
        "ipc": result.ipc,
        "cycles": float(result.cycles),
        "stack_global": float(counters.stack_global_ops),
        "stack_shared": float(counters.stack_shared_ops),
        "l1d_kb": counters.l1_accesses * line_bytes / 1024.0,
        "dram_kb": counters.offchip_accesses * line_bytes / 1024.0,
        "energy_uj": energy.total_nj / 1e3,
    }


def run(
    cache: Optional[CachedWorkloadCache] = None,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    base_config: Optional[GPUConfig] = None,
) -> StrategyComparison:
    """Run every (scene, strategy) cell and collect the results.

    ``base_config`` defaults to the paper's full SMS configuration
    (``RB_8+SH_8+SK+RA``); each strategy adapts it via
    ``adapt_config``.  Strategy names are validated up front so typos
    fail before any tracing starts.
    """
    from repro.core.presets import sms_config

    cache = cache or CachedWorkloadCache()
    names = [resolve_strategy(spec).name for spec in strategies]
    if not names:
        names = list(DEFAULT_STRATEGIES)
    config = base_config if base_config is not None else sms_config()
    # Scene-major job order keeps each scene's phase-one traces warm in
    # the per-process memo across its strategy cells.
    flat = iter(cache.run_jobs([
        cache.job_for(scene, config, strategy=name)
        for scene in cache.names
        for name in names
    ]))
    per_scene = {
        scene: {name: next(flat) for name in names} for scene in cache.names
    }
    return StrategyComparison(
        strategies=names,
        base_label=config.describe(),
        per_scene=per_scene,
    )


#: Float digits for the per-scene table columns (see ``render``).
_SCENE_PRECISION = (None, None, None, 4, 3, None, None, None, 1, 1, 2)
#: Float digits for the aggregate table columns.
_AGGREGATE_PRECISION = (None, 3, None, None, 1, 1, 2)


def render(result: StrategyComparison) -> str:
    """Per-scene tables plus the aggregate, paper-style.

    Cells are raw numbers; rounding and alignment are the shared
    :func:`~repro.experiments.report.format_table` helper's job (one
    rule for this table and the ablation reporter).
    """
    headers = [
        "strategy", "config", "backend", "IPC", "vs " + result.strategies[0],
        "cycles", "stack gbl", "stack shd", "L1D KB", "DRAM KB", "uJ",
    ]
    blocks: List[str] = []
    base_name = result.strategies[0]
    for scene, per_strategy in result.per_scene.items():
        base = _metrics(per_strategy[base_name])
        rows = []
        for name in result.strategies:
            cell = per_strategy[name]
            m = _metrics(cell)
            rows.append((
                name,
                cell.label,
                cell.backend,
                m["ipc"],
                m["ipc"] / base["ipc"] if base["ipc"] else "-",
                int(m["cycles"]),
                int(m["stack_global"]),
                int(m["stack_shared"]),
                m["l1d_kb"],
                m["dram_kb"],
                m["energy_uj"],
            ))
        blocks.append(format_table(
            headers, rows, title=f"[{scene}]", precision=_SCENE_PRECISION,
        ))

    # Aggregate: geomean speedup, total traffic and energy over the suite.
    agg_rows = []
    for name in result.strategies:
        speedups = []
        totals = {"stack_global": 0.0, "stack_shared": 0.0,
                  "l1d_kb": 0.0, "dram_kb": 0.0, "energy_uj": 0.0}
        for per_strategy in result.per_scene.values():
            base = _metrics(per_strategy[base_name])
            m = _metrics(per_strategy[name])
            if base["ipc"]:
                speedups.append(m["ipc"] / base["ipc"])
            for key in totals:
                totals[key] += m[key]
        agg_rows.append((
            name,
            geomean(speedups) if speedups else "-",
            int(totals["stack_global"]),
            int(totals["stack_shared"]),
            totals["l1d_kb"],
            totals["dram_kb"],
            totals["energy_uj"],
        ))
    blocks.append(format_table(
        ["strategy", f"IPC geomean vs {base_name}", "stack gbl",
         "stack shd", "L1D KB", "DRAM KB", "uJ"],
        agg_rows,
        title=f"[aggregate over {len(result.per_scene)} scenes, "
              f"base config {result.base_label}]",
        precision=_AGGREGATE_PRECISION,
    ))
    return "\n\n".join(blocks)
