"""One timed repeat of one workload, run in a fresh process by ``run.py``.

Prints ``READY`` once imports are done and the cache is built, and
``DONE`` as soon as the last cell has finished; the parent timestamps
both lines.  Then it reaps its pool workers, so their CPU time and peak
RSS are counted, and writes the cells' counters, the runtime metrics and
its resource usage as JSON to ``--out``.

    python bench/child.py --workload fig13-cold --seed 0 \
        --store STORE_DIR --out OUT.json [--smoke] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

#: Seconds to wait for pool workers to exit after the last cell.
REAP_TIMEOUT_S = 30.0


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _reap_workers() -> None:
    """Join every exited worker process, so RUSAGE_CHILDREN counts it."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for process in multiprocessing.active_children():
                process.terminate()
                process.join(5)
            return
        time.sleep(0.01)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.ablation.engine import matrix_jobs
    from repro.ablation.matrix import generate_matrix
    from repro.runtime.cache import runtime_cache

    from workloads import WORKLOADS, cell_id, counters_of

    workload = WORKLOADS[args.workload].sized(args.seed, args.smoke)
    cache = runtime_cache(
        params=workload.params,
        scene_names=workload.scenes,
        jobs=workload.jobs,
        cache_dir=args.store,
        backend=workload.backend,
    )
    swept = []
    sweep = cache.sweep

    def recording_sweep(configs, verify_pops=False):
        swept.append(list(configs))
        return sweep(configs, verify_pops)

    cache.sweep = recording_sweep
    print("READY", flush=True)
    if args.setup_only:
        return 0

    before = resource.getrusage(resource.RUSAGE_SELF)
    result = workload.drive(cache)
    print("DONE", flush=True)
    _reap_workers()
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)

    if swept:
        jobs = [cache.job_for(name, config)
                for configs in swept
                for name in cache.names for config in configs]
    else:
        jobs = matrix_jobs(generate_matrix(result.space),
                           params=workload.params, backend=workload.backend)
    cells = []
    for job in jobs:
        key = job.key()
        stored = cache.store.get(key)
        cells.append({
            "id": cell_id(job),
            "key": key,
            "spec": job.spec(),
            "counters": counters_of(stored) if stored is not None else None,
        })
    metrics = cache.metrics
    payload = {
        "cpu_s": _cpu(own) - _cpu(before) + _cpu(workers),
        "peak_rss_mb": max(own.ru_maxrss, workers.ru_maxrss) / 1024.0,
        "workers": cache.policy.effective_workers(max(1, metrics.simulated)),
        "means": getattr(result, "means", None),
        "runtime": {
            "cache_hits": metrics.cache_hits,
            "simulated": metrics.simulated,
            "retries": metrics.retries,
            "serial_fallbacks": metrics.serial_fallbacks,
            "failed": metrics.failed,
            "job_seconds": metrics.job_seconds,
            "elapsed_seconds": metrics.elapsed_seconds,
        },
        "cells": cells,
    }
    Path(args.out).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
