"""In-memory spans recorded around library calls, and their self times.

A span is ``{id, parent, name, start, end, workload, cell}``; times come
from ``time.perf_counter``.  Spans are opened only by the benchmark's own
code around public library calls (outside-in), kept in memory, and
written out once the traced run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records nested spans for one workload's traced run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._open: List[dict] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[dict]:
        """Time the enclosed block as a child of the innermost open span.

        A span without its own ``cell`` inherits its parent's, so every
        span under one cell shares that cell's identifier.
        """
        parent = self._open[-1] if self._open else None
        if cell is None and parent is not None:
            cell = parent["cell"]
        record = {
            "id": len(self.spans),
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "workload": self.workload,
            "cell": cell,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> Path:
        """Write every span as a JSON list, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = ",\n".join(json.dumps(span) for span in self.spans)
        path.write_text(f"[\n{rows}\n]\n")
        return path


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and their union is
    taken, so overlapping children are not subtracted twice.
    """
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def seconds_by_name(spans: List[dict]) -> Dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += own[span["id"]]
    return dict(totals)


def span_cost(samples: int = 2000) -> float:
    """Seconds one empty span costs on this machine (tracing overhead)."""
    tracer = Tracer("calibration")
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - start) / samples
