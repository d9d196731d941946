"""Experiment drivers — one module per table/figure of the paper.

Every driver exposes a ``run(...)`` returning a structured result and a
``render(result)`` returning the text table/series the paper reports.
``repro.experiments.runner`` regenerates everything in one call.

Index (see DESIGN.md section 4):

==========  ====================================================
table1      Baseline GPU parameters
table2      Benchmark scene statistics
fig4        Max/avg/median stack depth per workload
fig5        Stack-depth distribution buckets
fig6        IPC vs RB stack size (a) and L1D size (b)
fig8        IPC for SH stack size configurations
fig10       Per-thread stack-depth series (PARTY)
fig13       SMS IPC improvements (+SH_8 / +SK / +RA vs FULL)
fig14       Bank-conflict delay cycles with/without skewed access
fig15       IPC (a) and off-chip accesses (b) vs RB size, +/- SMS
==========  ====================================================
"""

from repro.experiments.common import geomean
from repro.experiments.runner import run_experiment, EXPERIMENTS
from repro.runtime.cache import CachedWorkloadCache

__all__ = ["CachedWorkloadCache", "geomean", "run_experiment", "EXPERIMENTS"]
