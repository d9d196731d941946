"""Result export.

Turns any list of :class:`~repro.core.results.SimulationResult` into
portable artifacts: CSV/JSON files for downstream plotting and a
markdown summary for reports.  Run the sweep itself on a workload cache
(:func:`repro.runtime.runtime_cache`) and export its results here.
"""

from repro.analysis.export import (
    results_to_rows,
    write_csv,
    write_json,
    results_markdown,
)

__all__ = [
    "results_to_rows",
    "write_csv",
    "write_json",
    "results_markdown",
]
