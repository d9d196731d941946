"""Ablation and design-space exploration over the SMS parameter space.

Declare a :class:`KnobSpace` (pinned ``fixed`` knobs plus swept
``ranges``), expand it into a deterministic content-addressed run
matrix, execute every (design point, scene) cell through the runtime,
and derive per-mechanism importance (LOO + OAT attribution of the
paper's +21.9% IPC claim) and the IPC-vs-SRAM Pareto frontier.  CLI:
``repro ablate run/report/pareto``.
"""

from repro.ablation.analysis import (
    FULL_STACK_PROXY_ENTRIES,
    KnobImportance,
    ParetoPoint,
    pareto_frontier,
    pareto_points,
    rank_importance,
    speedups_vs_reference,
    stack_sram_bytes,
)
from repro.ablation.engine import (
    REPORT_FILENAME,
    REPORT_SCHEMA,
    AblationReport,
    load_report,
    matrix_jobs,
    run_space,
    write_report,
)
from repro.ablation.matrix import (
    RunMatrix,
    RunSpec,
    corner_assignment,
    generate_matrix,
    resolve_run,
    run_id,
)
from repro.ablation.report import (
    render_importance,
    render_json,
    render_pareto,
    render_sweep,
    render_text,
)
from repro.ablation.space import (
    KnobSpace,
    available_knobs,
    check_knob,
    load_space,
)
from repro.ablation.spaces import (
    available_spaces,
    named_space,
    resolve_space,
    space_catalog,
)

__all__ = [
    "FULL_STACK_PROXY_ENTRIES",
    "REPORT_FILENAME",
    "REPORT_SCHEMA",
    "AblationReport",
    "KnobImportance",
    "KnobSpace",
    "ParetoPoint",
    "RunMatrix",
    "RunSpec",
    "available_knobs",
    "available_spaces",
    "check_knob",
    "corner_assignment",
    "generate_matrix",
    "load_report",
    "load_space",
    "matrix_jobs",
    "named_space",
    "pareto_frontier",
    "pareto_points",
    "rank_importance",
    "render_importance",
    "render_json",
    "render_pareto",
    "render_sweep",
    "render_text",
    "resolve_run",
    "resolve_space",
    "run_id",
    "run_space",
    "space_catalog",
    "speedups_vs_reference",
    "stack_sram_bytes",
    "write_report",
]
