"""Tests of the benchmark harness, on ``--smoke`` sizes.

    pytest bench/tests
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from spans import Tracer, self_times

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args, results: Path):
    """Run ``run.py --smoke``; returns the process and its last-line JSON."""
    process = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke",
         "--results", str(results), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    return process, json.loads(process.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(tmp_path, trace, group):
    process, summary = _bench("--workload", "pareto-vector", "--repeats", "1",
                              "--trace", str(trace), results=tmp_path)
    assert process.returncode == 0, process.stdout + process.stderr
    assert summary["correct"] and summary["failed"] == 0
    declared = {metric["name"]: metric["unit"] for metric in SPEC[group]}
    printed = {name: metric["unit"]
               for name, metric in summary["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert NAME.fullmatch(name)
        assert re.search(rf"{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         process.stdout, re.MULTILINE)


def test_corrupted_pin_counts_the_cell_and_fails_the_run(tmp_path):
    pins = tmp_path / "pins.json"
    subprocess.run(
        [sys.executable, str(BENCH / "pin.py"), "--smoke",
         "--workload", "fullscale-crnvl", "--out", str(pins)],
        check=True, capture_output=True, cwd=ROOT, timeout=120,
    )
    process, summary = _bench("--workload", "fullscale-crnvl", "--repeats",
                              "1", "--pins", str(pins), results=tmp_path)
    assert process.returncode == 0 and summary["failed"] == 0

    data = json.loads(pins.read_text())
    cells = data["workloads"]["fullscale-crnvl"]
    cell = sorted(cells)[0]
    cells[cell][data["fields"].index("cycles")] += 1
    pins.write_text(json.dumps(data))
    process, summary = _bench("--workload", "fullscale-crnvl", "--repeats",
                              "1", "--pins", str(pins), results=tmp_path)
    assert process.returncode != 0
    assert not summary["correct"] and summary["failed"] >= 1
    assert re.search(rf"MISMATCH .*{re.escape(cell)} cycles", process.stdout)
    assert re.search(r"error_rate\s+0\.\d+ fraction", process.stdout)


def test_self_time_subtracts_the_union_of_clipped_children():
    def span(id, parent, start, end):
        return {"id": id, "parent": parent, "name": f"s{id}",
                "start": start, "end": end, "workload": "w", "cell": None}

    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),   # overlaps span 1
        span(3, 1, 2.0, 3.0),   # grandchild: charged to span 1 only
        span(4, 0, 9.0, 12.0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0,
                                 3: 1.0, 4: 3.0})


def test_tracer_nests_spans_and_shares_the_cell_id():
    tracer = Tracer("w")
    with tracer.span("run"):
        with tracer.span("cell", cell="SHIP/RB_8"):
            with tracer.span("gpu.run_traces"):
                pass
    run, cell, gpu = tracer.spans
    assert (run["parent"], cell["parent"], gpu["parent"]) == (None, 0, 1)
    assert gpu["cell"] == "SHIP/RB_8" and run["cell"] is None
    assert all(s["start"] <= s["end"] for s in tracer.spans)


@pytest.mark.parametrize("base, new, verdict", [
    ([10.0, 10.2, 10.4], [10.9, 11.0, 11.1], "within"),
    ([10.0, 10.2, 10.4], [13.0, 13.1, 13.2], "worse"),
    ([10.0, 13.0, 16.0], [10.0, 10.2, 10.4], "unresolved"),
    ([12.0, 14.0, 16.0], [10.0, 10.2, 10.4], "better"),
])
def test_compare_verdicts(base, new, verdict):
    assert compare.verdict(base, new, bound=0.25, better="lower") == verdict


def test_each_warm_store_repeat_sees_only_the_primed_hits(tmp_path):
    process, summary = _bench("--workload", "fig8-warm-store", "--repeats",
                              "2", results=tmp_path)
    assert process.returncode == 0, process.stdout + process.stderr
    record = json.loads(next(tmp_path.glob("fig8-warm-store-*.json"))
                        .read_text())
    # 3 of fig8's 5 configs are fig13's, on each of the 2 smoke scenes;
    # a store shared across repeats would give all 10 on the second.
    assert [s["store_hits"] for s in record["samples"]] == [6, 6]
