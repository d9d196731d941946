"""Mechanism-ablation study as an experiment driver.

Runs the declared ``mechanisms`` knob space (the 2^3 corner cube around
the paper's proposed design: SH tier x skewing x intra-warp
reallocation on an RB_8 base) through the ablation engine and renders
the sweep, the ranked importance attribution of the +21.9% IPC claim,
and the IPC-vs-SRAM Pareto frontier.

``repro experiment ablate`` runs it alongside the paper figures; the
full engine (arbitrary spaces, JSON reports, run directories) lives
behind ``repro ablate``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.runtime.cache import CachedWorkloadCache

# repro.ablation imports repro.experiments.common (geomean, table
# style), so the ablation modules load lazily inside run()/render() to
# keep this driver importable from the experiments package __init__.


def run(cache: Optional[CachedWorkloadCache] = None):
    """Execute the ``mechanisms`` space over the cache's scene suite."""
    from repro.ablation.engine import run_space
    from repro.ablation.spaces import named_space

    cache = cache or CachedWorkloadCache()
    space = replace(named_space("mechanisms"), scenes=tuple(cache.names))
    return run_space(space, params=cache.params, cache=cache)


def render(result) -> str:
    """Sweep + importance + Pareto tables (shared table style)."""
    from repro.ablation.report import render_text

    return render_text(result)
