"""Text and JSON renderers for lint reports.

The JSON shape is a stable contract (CI uploads the report as a build
artifact):

.. code-block:: json

    {
      "schema": 3,
      "tool": "repro.simlint",
      "exit_code": 1,
      "summary": {"files": 210, "findings": 1, "suppressed": 4,
                  "broken": 0},
      "findings": [{"rule": "SL101", "path": "src/repro/gpu/rt_unit.py",
                    "line": 12, "col": 9, "message": "...",
                    "text": "..."}],
      "broken": []
    }
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import List

from repro.simlint.engine import LintReport

#: 3: findings carry no severity, and the summary counts only files,
#: findings, suppressions and unparseable files.
REPORT_SCHEMA_VERSION = 3


def render_text(report: LintReport) -> str:
    """Human-oriented rendering: one line per finding plus a summary."""
    lines: List[str] = []
    for path, message in report.broken:
        lines.append(f"{path}: cannot parse ({message})")
    for finding in report.findings:
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.message}"
        )
    lines.append(summary_line(report))
    return "\n".join(lines)


def summary_line(report: LintReport) -> str:
    counts = (
        f"{report.files} file(s): {len(report.findings)} finding(s), "
        f"{report.suppressed} suppressed"
    )
    if report.broken:
        counts += f", {len(report.broken)} unparseable"
    return counts


def render_json(report: LintReport) -> str:
    """Machine-oriented rendering; see the module docstring for schema."""
    payload = {
        "schema": REPORT_SCHEMA_VERSION,
        "tool": "repro.simlint",
        "exit_code": report.exit_code,
        "summary": {
            "files": report.files,
            "findings": len(report.findings),
            "suppressed": report.suppressed,
            "broken": len(report.broken),
        },
        "findings": [asdict(finding) for finding in report.findings],
        "broken": [
            {"path": path, "message": message}
            for path, message in report.broken
        ],
    }
    return json.dumps(payload, indent=1, sort_keys=True)
