"""Ablations beyond the paper's figures (DESIGN.md section 7).

Probes the constants the paper fixes by heuristic (borrow limit 4,
flush limit 3), the skew-scaling claim of section V-A, the spill
cacheability regime, warp occupancy, the inter-warp reallocation the
paper rejects and the stackless-traversal overhead of related work
(section VIII-A).  The knob sweeps run their declared spaces
(``repro ablate run --space NAME``) on the session cache.
"""

import os
from dataclasses import replace

from benchmarks.conftest import report
from repro.ablation import (
    named_space,
    render_importance,
    render_sweep,
    run_space,
)
from repro.experiments import ablations
from repro.experiments.fig14_skewed import Fig14Result
from repro.experiments.report import format_table


def _run_space(benchmark, cache, name):
    """Run one declared space on every scene of the session cache."""
    space = replace(named_space(name), scenes=tuple(cache.names))
    return benchmark.pedantic(
        run_space, args=(space,),
        kwargs={"params": cache.params, "cache": cache},
        rounds=1, iterations=1,
    )


def _speedups(result, *knobs):
    """Speedup over the reference corner, keyed by ``knobs``' values
    (a bare value for one knob)."""
    table = {}
    for spec_id, entry in result.runs.items():
        key = tuple(entry["knobs"][knob] for knob in knobs)
        table[key if len(key) > 1 else key[0]] = result.speedups[spec_id]
    return table


def test_bounds(benchmark, cache):
    result = _run_space(benchmark, cache, "bounds")
    report(
        "Ablation: borrow and flush limits (paper fixes 4 and 3)",
        render_sweep(result),
    )
    speedups = _speedups(result, "max_borrows", "max_flushes")
    borrows = {limit: speedups[limit, 3] for limit in (1, 2, 4, 8)}
    flushes = [speedups[4, limit] for limit in (0, 1, 3, 6)]
    # The paper's choice of 4 borrows captures the benefit (8 adds
    # little), and flushes are rare by design.  Reallocation off is
    # Fig. 13's RB_8+SH_8+SK bar, checked against +RA there.
    assert borrows[4] >= borrows[1] - 0.005
    assert abs(borrows[8] - borrows[4]) < 0.02
    assert max(flushes) - min(flushes) < 0.05


def test_skew_scaling(benchmark, cache):
    result = _run_space(benchmark, cache, "skew")
    delays = {
        (entry["knobs"]["sh_stack_entries"],
         entry["knobs"]["skewed_bank_access"]): {
            scene: cell["bank_conflict_delay_cycles"]
            for scene, cell in entry["per_scene"].items()
        }
        for entry in result.runs.values()
    }
    cuts = {
        size: Fig14Result(
            delay_no_skew=delays[size, False], delay_skew=delays[size, True]
        ).reduction
        for size in (4, 8, 16)
    }
    rows = [(f"SH_{size}", f"{cut:+.1%}") for size, cut in cuts.items()]
    report(
        "Ablation: skewed-access delay reduction across SH sizes "
        "(paper V-A scalability claim)",
        format_table(["SH size", "conflict-delay reduction (summed)"], rows),
    )
    # Skewing cuts the summed conflict delay at every size, but never
    # removes it.
    assert all(0.0 < cut < 1.0 for cut in cuts.values())


def test_spill_policy(benchmark, cache):
    result = _run_space(benchmark, cache, "spill_policy")
    report(
        "Ablation: spill cacheability regime (DESIGN.md substitution)",
        render_sweep(result),
    )
    speedups = _speedups(result, "spill_cache_policy")
    assert speedups["l1"] >= speedups["l2"] >= speedups["uncached"] - 0.01


def test_warp_occupancy(benchmark, cache):
    result = _run_space(benchmark, cache, "occupancy")
    report(
        "Ablation: resident warps per RT unit (Table I fixes 4)",
        render_sweep(result),
    )
    speedups = _speedups(result, "max_warps_per_rt_unit")
    # Removing latency hiding costs performance; extra slots beyond the
    # workload's occupancy add nothing.  At reduced REPRO_BENCH_SCALE the
    # per-SM warp count can drop to 1, flattening the sweep, so the strict
    # inequality only applies at full scale.
    if float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0:
        assert speedups[1] < speedups[4]
    else:
        assert speedups[1] <= speedups[4] + 1e-9
    assert abs(speedups[8] / speedups[4] - 1.0) < 0.02


def test_warp_formation(benchmark):
    from repro.experiments.ablations import warp_formation_study
    from repro.experiments.report import format_table

    result = benchmark.pedantic(
        warp_formation_study, rounds=1, iterations=1
    )
    rows = [
        (scene, result.fetch_lines_linear[scene],
         result.fetch_lines_tiled[scene],
         f"{result.ipc_gain[scene]:.3f}")
        for scene in result.ipc_gain
    ]
    report(
        "Ablation: warp formation — linear vs 8x4 tiled (extension)",
        format_table(
            ["scene", "fetch lines (linear)", "fetch lines (tiled)",
             "tiled IPC / linear"], rows,
        )
        + "\n\nTiling coalesces primary fetches slightly but concentrates "
        "heavy tiles into the same warps/SMs, hurting load balance at "
        "this workload's warp counts — coherence is not free.",
    )
    # Coalescing direction: tiled warps touch no more lines than linear.
    for scene in result.ipc_gain:
        assert (
            result.fetch_lines_tiled[scene]
            <= result.fetch_lines_linear[scene] * 1.02
        )


def test_packet_traversal(benchmark):
    from repro.experiments.ablations import packet_study
    from repro.experiments.report import format_table

    result = benchmark.pedantic(packet_study, rounds=1, iterations=1)
    rows = [
        (label, f"{result.stack_push_ratio[label]:.3f}",
         f"{result.visit_ratio[label]:.3f}")
        for label in result.stack_push_ratio
    ]
    report(
        "Ablation: packet traversal with a group-local stack (section VIII-B)",
        format_table(
            ["wave", "stack pushes vs per-ray", "node visits vs per-ray"], rows
        )
        + "\n\nShared stacks amortize best on coherent primaries; incoherent "
        "bounce rays lose most of the benefit — the paper's argument for "
        "per-ray stacks plus SMS instead.",
    )
    # Coherent rays amortize the shared stack better than incoherent ones.
    assert result.stack_push_ratio["primary"] < result.stack_push_ratio["bounce"]
    assert result.visit_ratio["primary"] < result.visit_ratio["bounce"]


def test_stackless_overhead(benchmark, cache):
    result = benchmark.pedantic(
        ablations.stackless_comparison, args=(cache,), rounds=1, iterations=1
    )
    rows = [
        (scene, f"{result.overhead[scene]:.2f}x",
         f"{result.restarts_per_ray[scene]:.1f}")
        for scene in result.overhead
    ]
    report(
        "Ablation: stackless restart-trail visit overhead (section VIII-A)",
        format_table(["scene", "visits vs DFS", "restarts/ray"], rows),
    )
    # Across the suite, stackless traversal costs extra node visits on
    # average — the overhead SMS avoids by keeping a real stack.
    mean_overhead = sum(result.overhead.values()) / len(result.overhead)
    assert mean_overhead > 1.2


def test_inter_warp_realloc(benchmark, cache):
    result = _run_space(benchmark, cache, "inter_warp")
    report(
        "Ablation: inter-warp reallocation — the design the paper rejects "
        "(section V-B)",
        render_sweep(result) + "\n\n" + render_importance(result),
    )
    inter_warp = {imp.knob: imp for imp in result.importance}[
        "inter_warp_realloc"
    ]
    # At the paper's RB_8+SH_8 design point (the LOO delta), cross-warp
    # borrowing buys little, supporting the intra-warp choice; only the
    # under-provisioned RB_2+SH_2 (the OAT delta) benefits meaningfully.
    assert inter_warp.loo_delta >= -0.01
    assert inter_warp.loo_delta < 0.05
    assert inter_warp.oat_delta > inter_warp.loo_delta


def test_size_consistency(benchmark):
    from repro.experiments.ablations import size_consistency_study
    from repro.experiments.report import format_table

    result = benchmark.pedantic(size_consistency_study, rounds=1, iterations=1)
    labels = list(result.speedups)
    scenes = list(next(iter(result.speedups.values())))
    rows = [
        [scene] + [f"{result.speedups[label][scene]:.3f}" for label in labels]
        for scene in scenes
    ]
    report(
        "Ablation: SMS speedup vs workload size (paper VII-A claim)",
        format_table(["scene"] + labels, rows)
        + "\n\nThe paper's consistency claim holds once the workload "
        "saturates the 8-SM machine; below ~2 warps/SM (16x16 here) the "
        "stack bottleneck fades and gains shrink — scale runs accordingly.",
    )
    # SMS never loses at any size, and gains do not shrink as the
    # workload grows toward machine saturation.
    for label in labels:
        for scene in scenes:
            assert result.speedups[label][scene] >= 0.99
    small, large = labels[0], labels[-1]
    for scene in scenes:
        assert (
            result.speedups[large][scene]
            >= result.speedups[small][scene] - 0.05
        )


def test_short_stack_restart_curve(benchmark):
    from repro.experiments.ablations import short_stack_study
    from repro.experiments.report import format_table

    result = benchmark.pedantic(short_stack_study, rounds=1, iterations=1)
    rows = [
        (capacity, f"{result.visit_overhead[capacity]:.2f}x",
         f"{result.restarts_per_ray[capacity]:.1f}")
        for capacity in sorted(result.visit_overhead)
    ]
    report(
        "Ablation: short stack + restart trail vs on-chip capacity "
        "(section VIII-A)",
        format_table(["stack entries", "visits vs DFS", "restarts/ray"], rows)
        + "\n\nEvery added on-chip entry removes restart replays — the "
        "mechanism by which the SMS shared-memory entries would speed up "
        "stackless schemes too, as the paper notes.",
    )
    capacities = sorted(result.visit_overhead)
    # Monotone improvement with capacity; deepest capacity near DFS cost.
    for small, large in zip(capacities, capacities[1:]):
        assert result.visit_overhead[large] <= result.visit_overhead[small] + 0.01
    assert result.restarts_per_ray[capacities[-1]] < result.restarts_per_ray[capacities[0]]
