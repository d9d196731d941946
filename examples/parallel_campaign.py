"""Run a cached, multi-process measurement sweep twice.

Demonstrates the runtime subsystem end to end: the first run fans the
(scene x config) sweep out over worker processes and persists every
result in the content-addressed store; the second run does zero
simulations — every cell is served from the store — and is near-instant.
The executor metrics printed after each run show exactly what happened.

Because the simulation is deterministic, cached and parallel results are
bit-identical to a serial run.

Run:  python examples/parallel_campaign.py [JOBS] [CACHE_DIR]
      (JOBS defaults to one worker per CPU; CACHE_DIR defaults to
      ~/.cache/repro-sms or $REPRO_CACHE_DIR)
"""

import sys

from repro.analysis import results_markdown
from repro.core.presets import named_config
from repro.runtime import runtime_cache
from repro.workloads import WorkloadParams

CONFIGS = ("RB_8", "RB_8+SH_8+SK+RA", "RB_FULL")


def run(jobs, cache_dir):
    """One sweep on a fresh workload cache: its results and metrics."""
    cache = runtime_cache(
        params=WorkloadParams().scaled(0.5),
        scene_names=("SHIP", "CRNVL", "SPNZA"),
        jobs=jobs,
        cache_dir=cache_dir,
        progress=True,
    )
    sweep = cache.sweep([named_config(label) for label in CONFIGS])
    results = [result for per_scene in sweep.values()
               for result in per_scene.values()]
    return results, cache.metrics


def main() -> int:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else None
    cache_dir = sys.argv[2] if len(sys.argv) > 2 else None

    print("first run (simulates, fills the store) ...")
    first, metrics = run(jobs, cache_dir)
    print(results_markdown(first))
    print(f"metrics: {metrics.summary()}")

    print("\nsecond run (served from the store) ...")
    second, metrics = run(jobs, cache_dir)
    print(f"metrics: {metrics.summary()}")
    hits = metrics.cache_hits
    total = metrics.jobs_total
    print(f"cache served {hits}/{total} jobs "
          f"({metrics.cache_hit_rate:.0%}); results identical: "
          f"{[r.counters for r in first] == [r.counters for r in second]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
