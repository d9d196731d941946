"""Calibration sweep: compare model ratios against the paper's targets.

Not part of the library — a development tool kept in the repo root for
reproducibility of the calibration recorded in EXPERIMENTS.md.
"""

# Operator-facing sweep: stdout IS the interface (the sweep table is the
# deliverable), and the elapsed-time reads measure the operator's wait,
# never simulator state.
# simlint: disable-file=SL402
# simlint: disable-file=SL101

import itertools
import sys
import time

from repro import named_config, trace_scene, time_traces
from repro.experiments import fig6_stack_l1d as fig6
from repro.experiments import fig8_sh_configs as fig8
from repro.experiments import fig13_sms_ipc as fig13
from repro.experiments import fig15_rb_sizes as fig15
from repro.scene import Scene, scatter_mesh

KB = 1024

# Paper targets: normalized IPC vs RB_8 (Figs 6a, 15a, 8, 13) and
# normalized off-chip accesses (Fig 15b), read from the figure drivers.
# Fig. 8 gives RB_8+SH_8 as 1.174 and Fig. 13 as 1.151; Fig. 13 comes
# last, so the fit keeps 1.151.  RB_8 is the normalization base.
IPC_TARGETS = {
    label: target
    for label, target in {
        **fig6.PAPER_STACK, **fig15.PAPER_IPC, **fig8.PAPER,
        **fig13.PAPER_MEANS,
    }.items()
    if label != "RB_8"
}
OFFCHIP_TARGETS = fig15.PAPER_OFFCHIP


def evaluate(traces, **overrides):
    base = time_traces(traces, named_config("RB_8", **overrides), scene_name="cal")
    rows = {}
    err = 0.0
    for name, target in IPC_TARGETS.items():
        r = time_traces(traces, named_config(name, **overrides), scene_name="cal")
        rel = r.ipc / base.ipc
        reloff = r.offchip_accesses / base.offchip_accesses
        rows[name] = (rel, reloff)
        err += (rel - target) ** 2
        if name in OFFCHIP_TARGETS:
            err += 0.25 * (reloff - OFFCHIP_TARGETS[name]) ** 2
    return err, rows


def main():
    scene = Scene(
        "cal",
        scatter_mesh(100000, clusters=32, triangle_size=0.5, bounds_size=12.0, seed=2),
    )
    t0 = time.time()
    wl = trace_scene(scene, width=32, height=32, max_bounces=3)
    print(f"rays={wl.ray_count} steps={wl.total_steps} trace={time.time()-t0:.0f}s")
    traces = wl.all_traces

    grid = {
        "l2_bytes": [256 * KB],
        "shader_pollution_lines": [48, 96],
        "dram_service_cycles": [4, 8, 16],
        "l1_port_cycles": [2, 4],
    }
    best = None
    for values in itertools.product(*grid.values()):
        overrides = dict(zip(grid.keys(), values))
        err, rows = evaluate(traces, **overrides)
        print(f"err={err:7.4f}  {overrides}")
        for name, (rel, reloff) in rows.items():
            print(
                f"    {name:18s} rel={rel:5.3f} (target {IPC_TARGETS[name]:5.3f})"
                f"  reloff={reloff:5.2f}"
            )
        if best is None or err < best[0]:
            best = (err, overrides)
    print("BEST:", best)


if __name__ == "__main__":
    sys.exit(main())
