"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py BASE_DIR NEW_DIR
    python3 bench/compare.py --runs 3 [--seed 0] [--workload NAME] [--seconds 20]

A set is a directory of result files written by ``run.py --results``.
For each end-to-end metric of ``BENCHMARK.json`` and each workload it
prints both sets' medians and quartiles and a verdict:

- ``within``: the new median is not worse than the base median by more
  than the metric's bound;
- ``worse``: it is;
- ``unresolved``: a set's spread (quartile distance over median) exceeds
  the bound, so the two cannot be told apart (``better`` instead when
  every new run reads better than every base run).  ``setup_s`` is
  judged on its medians alone.

``--runs N`` first runs the benchmark N times per set on this checkout,
alternating which set runs first, into ``bench/out/twoset/{a,b}``: the
check that two sets of runs of the same code agree within the bounds.
Exits 1 when any pairing is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Metrics judged on medians alone.  On fig8-warm-store, setup_s includes
#: one priming run per invocation, so its spread is not bounded.
MEDIAN_ONLY = ("setup_s",)


def load_set(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, from the untraced result files."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        for name, metric in record.get("metrics", {}).items():
            values[record["workload"]][name].append(metric["value"])
    return values


def quartiles(values: List[float]):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: List[float], new: List[float], bound: float,
            better: str, judge_spread: bool = True) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    if judge_spread and max(spread(base), spread(new)) > bound:
        if better == "lower":
            clearly_better = max(new) < min(base)
        else:
            clearly_better = min(new) > max(base)
        return "better" if clearly_better else "unresolved"
    change = sign * (statistics.median(new) - base_median) / base_median
    return "worse" if change > bound else "within"


def compare(base_dir: Path, new_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load_set(base_dir), load_set(new_dir)
    failing = 0
    print(f"{'workload':<16} {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            a = base.get(name, {}).get(metric["name"])
            b = new.get(name, {}).get(metric["name"])
            if not a or not b:
                print(f"{name:<16} {metric['name']:<12} missing in a set")
                failing += 1
                continue
            result = verdict(a, b, metric["bound"], metric["better"],
                             judge_spread=metric["name"] not in MEDIAN_ONLY)
            failing += result in ("worse", "unresolved")
            change = statistics.median(b) / statistics.median(a) - 1.0
            cells = [
                "{1:.4g} [{0:.4g}, {2:.4g}] n={3}".format(*quartiles(v), len(v))
                for v in (a, b)
            ]
            print(f"{name:<16} {metric['name']:<12} {cells[0]:>30} "
                  f"{cells[1]:>30} {change:>+8.1%}  {result} "
                  f"(bound {metric['bound']:.0%})")
    return 1 if failing else 0


def run_sets(args) -> Path:
    """Run the benchmark ``--runs`` times into each of two fresh sets."""
    root = BENCH / "out" / "twoset"
    shutil.rmtree(root, ignore_errors=True)
    command = [sys.executable, str(BENCH / "run.py"), "--seed",
               str(args.seed), "--seconds", str(args.seconds)]
    if args.workload:
        command += ["--workload", args.workload]
    for index in range(args.runs):
        order = ("a", "b") if index % 2 == 0 else ("b", "a")
        for tag in order:
            subprocess.run(command + ["--results", str(root / tag)],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return root


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("sets", nargs="*", type=Path,
                        help="base and new result directories")
    parser.add_argument("--runs", type=int,
                        help="run the benchmark this many times per set")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.runs:
        root = run_sets(args)
        return compare(root / "a", root / "b")
    if len(args.sets) != 2:
        parser.error("give two result directories, or --runs N")
    return compare(*args.sets)


if __name__ == "__main__":
    sys.exit(main())
