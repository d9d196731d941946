"""Run a custom measurement sweep and export the results.

Shows the library's study-your-own-question entry point: pick scenes and
configurations, run the sweep once on a workload cache, and get CSV/JSON
artifacts plus a normalized-IPC markdown table — the workflow for
anything the paper's figure set doesn't already cover.

Run:  python examples/campaign_export.py [OUTPUT_DIR]
"""

import sys
from pathlib import Path

from repro.analysis import results_markdown, write_csv, write_json
from repro.core.presets import named_config
from repro.experiments.common import mean_row, normalized_ipc
from repro.runtime import runtime_cache
from repro.workloads import WorkloadParams

CONFIGS = ("RB_8", "RB_4", "RB_4+SH_8+SK+RA", "RB_8+SH_8+SK+RA", "RB_FULL")
SCENES = ("SHIP", "CRNVL", "PARTY")


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    cache = runtime_cache(
        params=WorkloadParams().scaled(0.75), scene_names=SCENES
    )
    print("running", len(CONFIGS), "configs x", len(SCENES), "scenes ...")
    sweep = cache.sweep([named_config(label) for label in CONFIGS])
    results = [result for per_scene in sweep.values()
               for result in per_scene.values()]

    csv_path = write_csv(results, out_dir / "campaign.csv")
    json_path = write_json(results, out_dir / "campaign.json")
    print(f"wrote {csv_path} and {json_path}\n")

    print("normalized IPC (vs RB_8):")
    print(results_markdown(results, baseline_label="RB_8"))
    print()
    for label, mean in mean_row(normalized_ipc(sweep, "RB_8")).items():
        print(f"  {label:<18} geomean {mean:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
