"""Run the repository benchmark: end-to-end figure sweeps with checked outputs.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--repeats N] [--trace 0|1] [--smoke]

Without ``--trace 1`` each timed repeat runs in a fresh subprocess
(``child.py``) with a fresh store under ``bench/out/tmp``, and the
end-to-end metrics are medians over the repeats.  ``--seconds`` sets the
measurement window: repeats continue while the next one is expected to
end inside it (at least one runs); without it, ``--repeats`` fix the
count.  ``--trace 1`` runs one untimed repeat for the runtime metrics,
then replays the cells serially in this process with a span around each
layer's public call, and reports the per-layer metrics.

Every cell's integer counters are checked: against ``bench/expected/
seed<N>.json`` when it exists, across repeats, between the traced and
the untraced run, and (for unpinned seeds) every 8th vector cell against
the stepped oracle.  A mismatch is printed, counted in ``failed`` and
makes the exit status non-zero.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"

#: Environment variables that change what the library runs or where it
#: stores results; inherited values are dropped and set per workload.
REPRO_ENV = (
    "REPRO_CACHE_SALT", "REPRO_BENCH_SCALE", "REPRO_TRACE_MEMO",
    "REPRO_CACHE_DIR",
)

#: Set-up samples per run; setup_s is their median.
SETUP_SAMPLES = 5

#: A repeat that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0

#: Unpinned vector workloads re-run every this-many-th cell on stepped.
CROSS_CHECK_STRIDE = 8

#: Mismatch lines printed per check before the rest are only counted.
MAX_MISMATCH_LINES = 20

#: Span names that group layers rather than time one.
CONTAINER_SPANS = ("run", "cell")

_SEQUENCE = itertools.count()


def _parse(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measurement window per workload")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats when --seconds is not given")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--pins", type=Path,
                        help="expected counters (default: "
                             "bench/expected/seed<N>.json)")
    parser.add_argument("--results", type=Path, default=OUT / "results",
                        help="directory for the result file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def _workload_env(workload, store: Optional[Path], tmp: Path) -> Dict[str, str]:
    """The variables one workload runs under (None values are unset)."""
    return {
        "REPRO_CACHE_SALT": None,
        "REPRO_BENCH_SCALE": workload.scale,
        "REPRO_TRACE_MEMO": "4",
        "REPRO_CACHE_DIR": str(store) if store else None,
        "TMPDIR": str(tmp),
    }


def _child_env(workload, store: Path, tmp: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in REPRO_ENV}
    for key, value in _workload_env(workload, store, tmp).items():
        if value is not None:
            env[key] = value
    env["PYTHONPATH"] = str(SRC)
    return env


@contextmanager
def in_workload_env(workload, store: Optional[Path], tmp: Path):
    """Apply a workload's variables to this process, then restore them."""
    saved = {key: os.environ.get(key)
             for key in _workload_env(workload, store, tmp)}
    try:
        for key, value in _workload_env(workload, store, tmp).items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _machine() -> Dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
    }


# ----------------------------------------------------------------------
# timed repeats
# ----------------------------------------------------------------------

def _spawn(name: str, workload, args, tmp: Path, store: Path,
           restore_from: Optional[Path] = None,
           setup_only: bool = False) -> Dict:
    """Run ``child.py`` once; returns its payload plus the parent's times.

    ``setup_s`` runs from just before the snapshot restore (if any) and
    the spawn to the child's ``READY`` line; ``run_s`` from ``READY`` to
    ``DONE``.
    """
    out = tmp / f"child-{next(_SEQUENCE)}.json"
    command = [
        sys.executable, str(BENCH / "child.py"), "--workload", name,
        "--seed", str(args.seed), "--store", str(store), "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    begun = time.perf_counter()
    if restore_from is not None:
        shutil.copytree(restore_from, store)
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env=_child_env(workload, store, tmp),
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    timer.start()
    marks: Dict[str, float] = {}
    try:
        for line in process.stdout:
            marks.setdefault(line.strip(), time.perf_counter())
        code = process.wait()
    finally:
        timer.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0 or "READY" not in marks:
        return {"error": f"{name} repeat exited with status {code}"}
    sample = {"setup_s": marks["READY"] - begun}
    if setup_only:
        return sample
    if "DONE" not in marks or not out.exists():
        return {"error": f"{name} repeat ended without a result"}
    sample.update(json.loads(out.read_text()))
    sample["run_s"] = marks["DONE"] - marks["READY"]
    return sample


def _prime(workload, args, tmp: Path):
    """Run the priming workload's cells into a snapshot store.

    Returns ``(seconds, snapshot path or None, error or None)``.
    """
    if workload.primed_by is None:
        return 0.0, None, None
    from workloads import WORKLOADS

    snapshot = tmp / "snapshot"
    begun = time.perf_counter()
    primed = _spawn(workload.primed_by, WORKLOADS[workload.primed_by],
                    args, tmp, snapshot)
    return time.perf_counter() - begun, snapshot, primed.get("error")


def _measure(workload, args, tmp: Path, snapshot: Optional[Path]):
    """Timed repeats plus set-up-only spawns; returns (samples, setups)."""
    samples: List[Dict] = []
    started = time.perf_counter()
    while True:
        sample = _spawn(workload.name, workload, args, tmp,
                        tmp / f"store-{len(samples)}", restore_from=snapshot)
        samples.append(sample)
        if "error" in sample:
            return samples, []
        if args.seconds is None:
            if len(samples) >= args.repeats:
                break
        else:
            typical = statistics.median(
                s["setup_s"] + s["run_s"] for s in samples
            )
            if time.perf_counter() - started + typical > args.seconds:
                break
    setups = [sample["setup_s"] for sample in samples]
    while len(setups) < SETUP_SAMPLES:
        extra = _spawn(workload.name, workload, args, tmp,
                       tmp / f"setup-{len(setups)}", restore_from=snapshot,
                       setup_only=True)
        if "error" in extra:
            samples.append(extra)
            return samples, setups
        setups.append(extra["setup_s"])
    return samples, setups


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _load_pins(args) -> Optional[Dict]:
    """Expected counters per workload and cell, or None for this run.

    Pins record the size they were made at; a smoke run never uses full
    pins or the other way round.
    """
    path = args.pins or EXPECTED / f"seed{args.seed}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    size = "smoke" if args.smoke else "full"
    if data.get("seed") != args.seed or data.get("size") != size:
        return None
    fields = data["fields"]
    return {
        workload: {cell: dict(zip(fields, values))
                   for cell, values in cells.items()}
        for workload, cells in data["workloads"].items()
    }


def _diff(got: Dict, expected: Dict, label: str, lines: List[str]) -> set:
    """Cells whose counters differ from ``expected``'s (its fields only)."""
    bad = set()
    for cell in sorted(set(got) | set(expected)):
        mine, theirs = got.get(cell), expected.get(cell)
        if mine is None or theirs is None:
            bad.add(cell)
            if len(bad) <= MAX_MISMATCH_LINES:
                side = "result" if mine is None else "expectation"
                lines.append(f"MISMATCH {label}: {cell} has no {side}")
            continue
        for field, value in theirs.items():
            if mine.get(field) != value:
                bad.add(cell)
                if len(bad) <= MAX_MISMATCH_LINES:
                    lines.append(
                        f"MISMATCH {label}: {cell} {field} = "
                        f"{mine.get(field)}, expected {value}"
                    )
                break
    if len(bad) > MAX_MISMATCH_LINES:
        lines.append(f"MISMATCH {label}: {len(bad)} cells in all")
    return bad


def _cells(sample: Dict) -> Dict[str, Optional[Dict]]:
    return {cell["id"]: cell["counters"] for cell in sample["cells"]}


class Checks:
    """Cells attempted and failed across every check of one run."""

    def __init__(self, workload, pins: Optional[Dict]) -> None:
        self.workload = workload
        self.pins = None if pins is None else pins.get(workload.name, {})
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []

    def error(self, message: str, cells: int = 1) -> None:
        self.attempted += cells
        self.failed += cells
        self.lines.append(f"FAILED {self.workload.name}: {message}")

    def cells(self, cells: Dict, label: str,
              reference: Optional[Dict] = None) -> None:
        """Check one set of cells against the pins and ``reference``."""
        self.attempted += len(cells)
        bad = {cell for cell, counters in cells.items()
               if counters is None or counters["cycles"] <= 0}
        for cell in sorted(bad):
            self.lines.append(f"MISMATCH {label}: {cell} has no cycles")
        if self.pins is not None:
            bad |= _diff(cells, self.pins, f"{label} vs pin", self.lines)
        if reference is not None:
            bad |= _diff(cells, reference, label, self.lines)
        self.failed += len(bad)

    def repeats(self, samples: List[Dict], snapshot: Optional[Path]) -> None:
        from repro.runtime.store import ResultStore

        primed = set(ResultStore(snapshot).keys()) if snapshot else None
        first = None
        for index, sample in enumerate(samples):
            if "error" in sample:
                size = len(self.pins) if self.pins else 1
                self.error(sample["error"], cells=size)
                continue
            cells = _cells(sample)
            self.cells(cells, f"repeat {index}", first)
            first = first or cells
            if sample["runtime"]["failed"]:
                self.error(f"repeat {index}: "
                           f"{sample['runtime']['failed']} jobs failed")
            if primed is not None:
                expected = sum(cell["key"] in primed
                               for cell in sample["cells"])
                hits = sample["runtime"]["cache_hits"]
                if hits != expected:
                    self.error(f"repeat {index} saw {hits} store hits, "
                               f"expected {expected}")

    def cross_check(self, sample: Dict, tmp: Path) -> None:
        """Re-run every 8th cell of an unpinned vector run on stepped."""
        from replay import Replayer
        from workloads import job_from_spec

        if self.pins is not None or self.workload.backend != "vector":
            return
        picked = sample["cells"][::CROSS_CHECK_STRIDE]
        oracle = Replayer(backend="stepped")
        with in_workload_env(self.workload, None, tmp):
            oracle.run_jobs([job_from_spec(cell["spec"]) for cell in picked])
        self.attempted += len(picked)
        self.failed += len(_diff(
            {cell["id"]: cell["counters"] for cell in picked},
            oracle.cells, "vector vs stepped", self.lines,
        ))


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def paper_gap_pp(means: Optional[Dict], paper: Optional[Dict]) -> Optional[float]:
    """Mean |simulated - paper| normalised IPC, in percentage points.

    The baseline every IPC is normalised to (paper value 1.0) is left
    out, since it matches by construction.
    """
    if not means or not paper:
        return None
    labels = [label for label in paper
              if label in means and paper[label] != 1.0]
    if not labels:
        return None
    return 100.0 * statistics.fmean(
        abs(means[label] - paper[label]) for label in labels
    )


def _e2e_metrics(samples, setups, prime_s) -> Dict:
    def median(key):
        return statistics.median(sample[key] for sample in samples)

    return {
        "run_s": (median("run_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "setup_s": (prime_s + statistics.median(setups), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _layer_metrics(tracer, replayer, store, sample, gap) -> Dict:
    from spans import seconds_by_name, span_cost

    seconds = seconds_by_name(tracer.spans)
    root = tracer.spans[0]
    wall = root["end"] - root["start"]
    attributed = sum(value for name, value in seconds.items()
                     if name not in CONTAINER_SPANS)
    stats = replayer.stats
    runtime = sample["runtime"]
    job_seconds = runtime["job_seconds"]

    def span_s(name):
        return seconds.get(name, 0.0)

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    bvh_s = span_s("bvh.build_bvh") + span_s("bvh.release")
    busy = sum(job_seconds) / (sample["workers"] * runtime["elapsed_seconds"]) \
        if runtime["elapsed_seconds"] > 0 else 0.0
    return {
        "workloads.load_scene_s": (span_s("workloads.load_scene"), "s"),
        "workloads.triangles": (stats["workloads.triangles"], "count"),
        "bvh.build_s": (bvh_s, "s"),
        "bvh.tris_per_s": (rate(stats["workloads.triangles"], bvh_s), "1/s"),
        "bvh.nodes": (stats["bvh.nodes"], "count"),
        "trace.build_workload_s": (span_s("trace.build_workload"), "s"),
        "trace.rays": (stats["trace.rays"], "count"),
        "trace.steps": (stats["trace.steps"], "count"),
        "trace.steps_per_s": (rate(stats["trace.steps"],
                                   span_s("trace.build_workload")), "1/s"),
        "vector.plan_s": (span_s("gpu.vector"), "s"),
        "vector.plans": (stats["vector.plans"], "count"),
        "vector.plan_us_per_warp": (
            1e6 * span_s("gpu.vector") / stats["vector.plans"]
            if stats["vector.plans"] else 0.0, "us"),
        "vector.fallbacks": (stats["vector.fallbacks"], "count"),
        "gpu.run_traces_s": (span_s("gpu.run_traces"), "s"),
        "gpu.sim_cycles": (stats["gpu.sim_cycles"], "cycles"),
        "gpu.warp_steps": (stats["gpu.warp_steps"], "count"),
        "gpu.sim_cycles_per_s": (rate(stats["gpu.sim_cycles"],
                                      span_s("gpu.run_traces")), "cycles/s"),
        "core.result_s": (span_s("core.result"), "s"),
        "store.get_s": (span_s("store.get"), "s"),
        "store.put_s": (span_s("store.put"), "s"),
        "store.hits": (stats["store.hits"], "count"),
        "store.misses": (stats["store.misses"], "count"),
        "store.mb": (store.size_bytes() / 1e6, "MB"),
        "runtime.key_s": (span_s("runtime.key"), "s"),
        "runtime.simulated": (runtime["simulated"], "count"),
        "runtime.retries": (runtime["retries"], "count"),
        "runtime.serial_fallbacks": (runtime["serial_fallbacks"], "count"),
        "runtime.job_s_p50": (_percentile(job_seconds, 0.5), "s"),
        "runtime.job_s_p90": (_percentile(job_seconds, 0.9), "s"),
        "runtime.job_n": (len(job_seconds), "count"),
        "runtime.busy_frac": (busy, "fraction"),
        "runtime.work_inflation": (rate(sample["cpu_s"], attributed), "ratio"),
        "report.s": (span_s("report"), "s"),
        "tracing.wall_s": (wall, "s"),
        "tracing.unattributed_frac": (1.0 - rate(attributed, wall),
                                      "fraction"),
        "tracing.overhead_frac": (
            rate(len(tracer.spans) * span_cost(), wall), "fraction"),
        "paper_gap_pp": (gap if gap is not None else 0.0, "pp"),
    }


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def _traced(workload, args, tmp: Path, snapshot: Optional[Path]):
    """Replay the cells serially with spans; returns (tracer, replayer,
    store, result)."""
    from replay import Replayer, replay
    from spans import Tracer

    from repro.runtime.store import ResultStore

    store_dir = tmp / "traced-store"
    if snapshot is not None:
        shutil.copytree(snapshot, store_dir)
    store = ResultStore(store_dir)
    tracer = Tracer(workload.name)
    replayer = Replayer(store=store, tracer=tracer)
    with in_workload_env(workload, store_dir, tmp):
        with tracer.span("run"):
            with tracer.span("report"):
                result = replay(workload, replayer)
    tracer.write(OUT / f"spans-{workload.name}.json")
    return tracer, replayer, store, result


def _run_traced(workload, args, tmp, snapshot, checks) -> Dict:
    """One untraced repeat, then the traced replay: per-layer metrics."""
    sample = _spawn(workload.name, workload, args, tmp, tmp / "store",
                    restore_from=snapshot)
    checks.repeats([sample], snapshot)
    if "error" in sample:
        return {}
    checks.cross_check(sample, tmp)
    tracer, replayer, store, result = _traced(workload, args, tmp, snapshot)
    checks.cells(replayer.cells, "traced vs untraced", _cells(sample))
    gap = paper_gap_pp(getattr(result, "means", None), workload.paper)
    return _layer_metrics(tracer, replayer, store, sample, gap)


def _run_timed(workload, args, tmp, snapshot, prime_s, checks, record):
    """Timed repeats: (end-to-end metrics, extra printed values)."""
    samples, setups = _measure(workload, args, tmp, snapshot)
    checks.repeats(samples, snapshot)
    record["samples"] = [
        {"setup_s": sample.get("setup_s"),
         "run_s": sample.get("run_s"),
         "cpu_s": sample.get("cpu_s"),
         "peak_rss_mb": sample.get("peak_rss_mb"),
         "store_hits": sample.get("runtime", {}).get("cache_hits"),
         "error": sample.get("error")}
        for sample in samples
    ]
    record["setup_samples"] = setups
    if any("error" in sample for sample in samples):
        return {}, {}
    checks.cross_check(samples[0], tmp)
    extra = {"repeats": (len(samples), "count")}
    gap = paper_gap_pp(samples[0]["means"], workload.paper)
    if gap is not None:
        extra["paper_gap_pp"] = (gap, "pp")
    if prime_s:
        extra["prime_s"] = (prime_s, "s")
    return _e2e_metrics(samples, setups, prime_s), extra


def run_workload(name: str, args) -> int:
    """Measure (or trace) one workload, print its metrics; 0 if correct."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name].sized(args.seed, args.smoke)
    checks = Checks(workload, _load_pins(args))
    tmp = OUT / "tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    record: Dict = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "machine": _machine(), "pinned": checks.pins is not None,
    }
    metrics: Dict = {}
    extra: Dict = {}
    try:
        prime_s, snapshot, error = _prime(workload, args, tmp)
        if error:
            checks.error(f"priming: {error}")
        elif args.trace:
            metrics = _run_traced(workload, args, tmp, snapshot, checks)
        else:
            metrics, extra = _run_timed(workload, args, tmp, snapshot,
                                        prime_s, checks, record)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = max(1, checks.attempted)
    error_rate = checks.failed / attempted
    if args.trace:
        metrics["error_rate"] = (error_rate, "fraction")
    else:
        extra["error_rate"] = (error_rate, "fraction")
    correct = checks.failed == 0 and bool(metrics)
    for line in checks.lines:
        print(line)
    for metric, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<16} {metric:<26} {value:>14.6g} {unit}")
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    record.update(summary, extra={k: v for k, (v, _) in extra.items()})
    args.results.mkdir(parents=True, exist_ok=True)
    stamp = f"{time.time_ns()}-{os.getpid()}"
    (args.results / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no library sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in REPRO_ENV:
        os.environ.pop(key, None)
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        status |= run_workload(name, args)
    return status


if __name__ == "__main__":
    sys.exit(main())
