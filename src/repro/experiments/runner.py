"""One-call regeneration of every table and figure.

``run_experiment("fig13")`` runs one driver; ``run_all()`` regenerates
the whole evaluation section on one workload cache, so its store and
metrics span every driver.  The strategy head-to-head and the mechanism
ablation are not experiments here: their one front door is
``repro compare --strategies`` and ``repro ablate run``.

Without a cache both fall back to ``runtime_cache()``: every driver's
sweep runs on the runtime's process pool and is served from the
persistent result store on repeat runs.  To run serially or without the
store, pass ``runtime_cache(jobs=1, use_cache=False)`` (or a bare
``CachedWorkloadCache()``, serial with no store).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ExperimentError
from repro.experiments import (
    energy_study,
    fig4_stack_depths,
    fig5_depth_distribution,
    fig6_stack_l1d,
    fig8_sh_configs,
    fig10_thread_depths,
    fig13_sms_ipc,
    fig14_skewed,
    fig15_rb_sizes,
    table1,
    table2,
)
from repro.runtime.cache import CachedWorkloadCache, runtime_cache

#: Experiment id -> driver module.  Every driver has run()/render().
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig4": fig4_stack_depths,
    "fig5": fig5_depth_distribution,
    "fig6": fig6_stack_l1d,
    "fig8": fig8_sh_configs,
    "fig10": fig10_thread_depths,
    "fig13": fig13_sms_ipc,
    "fig14": fig14_skewed,
    "fig15": fig15_rb_sizes,
}

#: Extra (non-paper) studies runnable through the same interface.
EXTRA_EXPERIMENTS = {"energy": energy_study}

#: Drivers that take no workload cache.
_CACHELESS = ("table1",)


def run_experiment(
    name: str, cache: Optional[CachedWorkloadCache] = None
) -> str:
    """Run one experiment and return its rendered report."""
    key = name.lower()
    driver = EXPERIMENTS.get(key) or EXTRA_EXPERIMENTS.get(key)
    if driver is None:
        available = ", ".join(list(EXPERIMENTS) + list(EXTRA_EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {available}"
        )
    if key in _CACHELESS:
        return driver.render(driver.run())
    return driver.render(driver.run(cache or runtime_cache()))


def run_all(cache: Optional[CachedWorkloadCache] = None) -> Dict[str, str]:
    """Regenerate every table and figure; returns id -> rendered report.

    Every driver runs on ``cache`` (default ``runtime_cache()``), so one
    store and one set of metrics span the whole evaluation.
    """
    cache = cache or runtime_cache()
    reports: Dict[str, str] = {}
    for name in EXPERIMENTS:
        reports[name] = run_experiment(name, cache)
    return reports
