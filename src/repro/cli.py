"""Command-line interface.

Installed as ``python -m repro``.  Commands:

``scenes``
    List the benchmark workloads with their BVH statistics.
``simulate``
    Trace one scene and time it under one configuration.
``compare``
    Trace one scene once and time it under several configurations; or,
    with ``--strategies``, run the traversal-strategy head-to-head
    engine across the whole workload suite.
``experiment``
    Regenerate one paper table/figure (or ``all``).  Sweeps run on a
    worker-process pool (``--jobs``) and are served from the persistent
    result store (``--no-cache`` / ``--cache-dir`` to control it).
``ablate``
    Design-space exploration over the SMS knobs.  ``ablate run``
    expands a declared knob space (named, or a JSON file of ``fixed``
    knobs plus ``ranges``) into a deterministic run matrix, executes it
    on the worker pool, and derives per-mechanism importance plus the
    IPC-vs-SRAM Pareto frontier; ``ablate report`` / ``ablate pareto``
    re-render a saved run directory without re-simulating.
``overhead``
    Print the SMS hardware-overhead analysis (paper VI-C).
``cache``
    Inspect or clear the persistent result store: its results and its
    phase-one (trace) artifacts.
``chaos``
    Run the guard layer's fault-injection campaign: every simulation
    fault class must be detected with a structured error.
``lint``
    Run the simlint determinism/invariant static analysis over source
    trees, one cold pass with this repository's settings; every finding
    is an error unless an inline ``# simlint: disable=`` comment
    suppresses it.  Exit 0 clean, 1 on findings, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.api import time_traces, trace_scene
from repro.core.overhead import sms_hardware_overhead
from repro.core.presets import named_config
from repro.errors import ConfigError, ReproError


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMS shared-memory traversal stacks (ISPASS 2025) "
        "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenes", help="list benchmark workloads")

    sim = sub.add_parser("simulate", help="simulate one scene/config pair")
    _add_workload_args(sim)
    sim.add_argument("--config", default="RB_8+SH_8+SK+RA",
                     help="configuration label, e.g. RB_8 or RB_8+SH_8+SK+RA")
    _add_guard_args(sim)
    _add_backend_arg(sim)

    cmp_cmd = sub.add_parser(
        "compare",
        help="compare configurations on one scene, or traversal "
        "strategies across the workload suite (--strategies)",
    )
    _add_workload_args(cmp_cmd)
    cmp_cmd.add_argument(
        "--configs",
        default="RB_8,RB_8+SH_8,RB_8+SH_8+SK+RA,RB_FULL",
        help="comma-separated configuration labels",
    )
    cmp_cmd.add_argument(
        "--strategies",
        default="",
        help="comma-separated traversal strategies (e.g. "
        "sms,stackless,reorder); selects the suite-wide head-to-head "
        "engine — --scene/--width/... are ignored in this mode",
    )
    cmp_cmd.add_argument(
        "--base-config", default="RB_8+SH_8+SK+RA",
        help="base configuration each strategy adapts (strategy mode)",
    )
    cmp_cmd.add_argument("--scale", type=float, default=1.0,
                         help="workload resolution scale (strategy mode)")
    cmp_cmd.add_argument("--suite-scenes", default="",
                         help="comma-separated scene subset for the "
                         "strategy engine (default: full suite)")
    _add_runtime_args(cmp_cmd)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", help="experiment id (table1, fig13, ...) or 'all'")
    exp.add_argument("--scale", type=float, default=1.0,
                     help="workload resolution scale (default 1.0)")
    exp.add_argument("--scenes", default="",
                     help="comma-separated scene subset (default: full suite)")
    _add_runtime_args(exp)

    ablate = sub.add_parser(
        "ablate",
        help="design-space exploration / ablation over the SMS knobs",
    )
    ablate_sub = ablate.add_subparsers(dest="action", required=True)

    ablate_run = ablate_sub.add_parser(
        "run", help="expand a knob space, execute it, derive the report"
    )
    ablate_run.add_argument(
        "--space", default="mechanisms",
        help="declared space name or knob-space JSON file "
        "(default mechanisms; see --list-spaces)",
    )
    ablate_run.add_argument("--list-spaces", action="store_true",
                            help="list the declared spaces and exit")
    ablate_run.add_argument("--out", default=None,
                            help="run directory to write report.json into")
    ablate_run.add_argument("--scenes", default="",
                            help="comma-separated scene subset (overrides "
                            "the space's own scene list)")
    ablate_run.add_argument("--scale", type=float, default=1.0,
                            help="workload resolution scale (default 1.0)")
    ablate_run.add_argument("--guard", action="store_true",
                            help="run every cell under the integrity guard")
    ablate_run.add_argument("--format", choices=("text", "json"),
                            default="text",
                            help="report format on stdout (default text)")
    _add_runtime_args(ablate_run)

    ablate_report = ablate_sub.add_parser(
        "report", help="re-render a saved ablation run directory"
    )
    ablate_report.add_argument("run_dir", help="directory written by "
                               "'repro ablate run --out'")
    ablate_report.add_argument("--format", choices=("text", "json"),
                               default="text",
                               help="report format (default text)")

    ablate_pareto = ablate_sub.add_parser(
        "pareto", help="print a saved run's IPC-vs-SRAM Pareto frontier"
    )
    ablate_pareto.add_argument("run_dir", help="directory written by "
                               "'repro ablate run --out'")
    ablate_pareto.add_argument("--format", choices=("text", "json"),
                               default="text",
                               help="frontier format (default text)")

    sub.add_parser("overhead", help="print the SMS hardware overhead analysis")

    cache_cmd = sub.add_parser("cache", help="inspect the persistent result store")
    cache_cmd.add_argument("--cache-dir", default=None,
                           help="result store directory (default "
                           "~/.cache/repro-sms or $REPRO_CACHE_DIR)")
    cache_cmd.add_argument("--clear", action="store_true",
                           help="delete every stored result and "
                           "phase-one artifact")

    chaos = sub.add_parser(
        "chaos", help="run the guard layer's fault-injection campaign"
    )
    chaos.add_argument("--faults", default="",
                       help="comma-separated fault classes (default: all)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign seed (fault trigger points)")
    chaos.add_argument("--rays", type=int, default=128,
                       help="synthetic workload size")

    lint = sub.add_parser(
        "lint", help="run the simlint static analysis over source trees"
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", help="report format (default text)")
    lint.add_argument("--out", default=None,
                      help="also write the report to this file")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    return parser


def _add_guard_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--guard", action="store_true",
                        help="enable the simulation integrity layer "
                        "(invariant checks + watchdog)")
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="watchdog cycle budget (implies --guard)")


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for sweeps (default: one per "
                        "CPU; 1 = serial in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result store")
    parser.add_argument("--cache-dir", default=None,
                        help="result store directory (default "
                        "~/.cache/repro-sms or $REPRO_CACHE_DIR)")
    parser.add_argument("--progress", action="store_true",
                        help="draw a live progress line on stderr")
    _add_backend_arg(parser)


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("stepped", "vector"),
                        default="stepped",
                        help="timing backend: the reference per-cycle loop "
                        "('stepped') or the plan-driven vectorized core "
                        "('vector', bit-identical and several times faster; "
                        "falls back to stepped for unsupported configs)")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scene", default="CRNVL", help="workload name")
    parser.add_argument("--width", type=int, default=24)
    parser.add_argument("--height", type=int, default=24)
    parser.add_argument("--spp", type=int, default=1)
    parser.add_argument("--bounces", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)


def _cmd_scenes() -> int:
    from repro.bvh.api import build_bvh
    from repro.bvh.stats import compute_stats
    from repro.workloads.lumibench import SCENE_NAMES, load_scene, scene_recipe

    print(f"{'scene':<7} {'triangles':>10} {'BVH MB':>8} {'depth':>6}  paper")
    for name in SCENE_NAMES:
        scene = load_scene(name)
        stats = compute_stats(build_bvh(scene))
        recipe = scene_recipe(name)
        print(
            f"{name:<7} {stats.triangle_count:>10} {stats.megabytes:>8.2f} "
            f"{stats.max_depth:>6}  {recipe.paper_triangles} tris, "
            f"{recipe.paper_bvh_mb} MB"
        )
    return 0


def _trace(args) -> "tuple":
    from repro.workloads.lumibench import load_scene

    scene = load_scene(args.scene)
    workload = trace_scene(
        scene,
        width=args.width,
        height=args.height,
        spp=args.spp,
        max_bounces=args.bounces,
        seed=args.seed,
    )
    print(
        f"scene {scene.name}: {scene.triangle_count} triangles, "
        f"{workload.ray_count} rays, {workload.total_steps} node visits"
    )
    return scene, workload


def _cmd_simulate(args) -> int:
    scene, workload = _trace(args)
    guard = None
    if args.guard or args.max_cycles is not None:
        from repro.guard import GuardConfig

        guard = GuardConfig(max_cycles=args.max_cycles)
    result = time_traces(
        workload.all_traces, named_config(args.config), scene_name=scene.name,
        guard=guard, backend=args.backend,
    )
    counters = result.counters
    print(f"config   : {result.label}")
    if args.backend != "stepped" or result.backend != "stepped":
        note = (
            "" if result.backend == args.backend
            else f" (requested {args.backend}, fell back)"
        )
        print(f"backend  : {result.backend}{note}")
    if guard is not None:
        budget = (
            f", max_cycles={args.max_cycles}" if args.max_cycles else ""
        )
        print(f"guard    : invariants + watchdog{budget} (no violations)")
    print(f"IPC      : {result.ipc:.4f}  ({result.cycles} cycles)")
    print(f"off-chip : {result.offchip_accesses} DRAM transactions")
    print(
        f"stack ops: {counters.stack_global_ops} global, "
        f"{counters.stack_shared_ops} shared "
        f"(bank-conflict delay {counters.bank_conflict_delay_cycles} cycles)"
    )
    if counters.borrows or counters.flushes:
        print(f"realloc  : {counters.borrows} borrows, {counters.flushes} flushes")
    return 0


def _cmd_compare(args) -> int:
    if args.strategies.strip():
        return _cmd_compare_strategies(args)
    labels = [label.strip() for label in args.configs.split(",") if label.strip()]
    if not labels:
        raise ConfigError(f"--configs {args.configs!r} names no configuration")
    scene, workload = _trace(args)
    results = [
        time_traces(workload.all_traces, named_config(label),
                    scene_name=scene.name, backend=args.backend)
        for label in labels
    ]
    base = results[0]
    print(
        f"\n{'config':<20} {'backend':>8} {'IPC':>8} "
        f"{'vs ' + base.label:>10} {'off-chip':>9}"
    )
    for result in results:
        print(
            f"{result.label:<20} {result.backend:>8} {result.ipc:>8.4f} "
            f"{result.ipc / base.ipc:>10.3f} {result.offchip_accesses:>9}"
        )
    return 0


def _cmd_compare_strategies(args) -> int:
    """The suite-wide strategy head-to-head (``compare --strategies``)."""
    from repro.experiments import compare_strategies
    from repro.runtime.cache import runtime_cache
    from repro.workloads.params import DEFAULT_PARAMS

    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    params = (
        DEFAULT_PARAMS if args.scale == 1.0 else DEFAULT_PARAMS.scaled(args.scale)
    )
    scene_names = (
        [s.strip() for s in args.suite_scenes.split(",") if s.strip()] or None
    )
    cache = runtime_cache(
        params=params,
        scene_names=scene_names,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=args.progress,
        backend=args.backend,
    )
    result = compare_strategies.run(
        cache,
        strategies=strategies,
        base_config=named_config(args.base_config),
    )
    print(compare_strategies.render(result))
    if cache.metrics.jobs_total:
        print(f"[repro] {cache.metrics.summary()}", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.runner import run_all, run_experiment
    from repro.runtime.cache import runtime_cache
    from repro.workloads.params import DEFAULT_PARAMS

    params = (
        DEFAULT_PARAMS if args.scale == 1.0 else DEFAULT_PARAMS.scaled(args.scale)
    )
    scene_names = (
        [s.strip() for s in args.scenes.split(",") if s.strip()] or None
    )
    cache = runtime_cache(
        params=params,
        scene_names=scene_names,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=args.progress,
        backend=args.backend,
    )
    if args.name.lower() == "all":
        for name, text in run_all(cache).items():
            print(f"\n===== {name} =====")
            print(text)
    else:
        print(run_experiment(args.name, cache))
    if cache.metrics.jobs_total:
        print(f"[repro] {cache.metrics.summary()}", file=sys.stderr)
    return 0


def _cmd_ablate(args) -> int:
    """``repro ablate run|report|pareto``."""
    if args.action == "run":
        return _cmd_ablate_run(args)
    import json

    from repro.ablation import load_report, render_json, render_pareto, render_text

    report = load_report(args.run_dir)
    if args.action == "pareto":
        if args.format == "json":
            print(json.dumps([point.to_dict() for point in report.pareto],
                             sort_keys=True, indent=2))
        else:
            print(render_pareto(report))
        return 0
    print(render_json(report) if args.format == "json" else render_text(report))
    return 0


def _cmd_ablate_run(args) -> int:
    """Expand, execute and report one knob space."""
    from dataclasses import replace

    from repro.ablation import (
        render_json,
        render_text,
        resolve_space,
        run_space,
        space_catalog,
        write_report,
    )
    from repro.runtime.cache import runtime_cache
    from repro.workloads.params import DEFAULT_PARAMS

    if args.list_spaces:
        catalog = space_catalog()
        for name in sorted(catalog):
            print(f"{name:<12} {catalog[name]}")
        return 0
    space = resolve_space(args.space)
    scenes = [s.strip() for s in args.scenes.split(",") if s.strip()]
    if scenes:
        space = replace(space, scenes=tuple(scenes))
    params = (
        DEFAULT_PARAMS if args.scale == 1.0 else DEFAULT_PARAMS.scaled(args.scale)
    )
    cache = runtime_cache(
        params=params,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=args.progress,
        backend=args.backend,
    )
    report = run_space(space, params=params, guard=args.guard, cache=cache,
                       backend=args.backend)
    print(render_json(report) if args.format == "json" else render_text(report))
    if args.out:
        path = write_report(report, args.out)
        print(f"report written to {path}", file=sys.stderr)
    if cache.metrics.jobs_total:
        print(f"[repro] {cache.metrics.summary()}", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    from repro.runtime.store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.clear:
        removed = store.clear()
        artifacts = store.clear_traces()
        print(f"cleared {removed} stored results and {artifacts} phase-one "
              f"artifacts from {store.root}")
        return 0
    count = len(store)
    failures = sum(1 for _ in store.failures())
    artifacts = store.trace_artifacts()
    artifact_mb = sum(path.stat().st_size for path in artifacts) / 1e6
    print(f"store    : {store.root}")
    print(f"entries  : {count}")
    print(f"disk     : {store.size_bytes() / 1024:.1f} KB")
    print(f"phase one: {len(artifacts)} artifacts, {artifact_mb:.1f} MB")
    if failures:
        print(f"failures : {failures} recorded guard violations "
              f"(see {store.root / 'failures'})")
    return 0


def _cmd_chaos(args) -> int:
    from repro.guard import run_chaos_campaign

    kinds = [k.strip() for k in args.faults.split(",") if k.strip()] or None
    report = run_chaos_campaign(kinds=kinds, seed=args.seed, rays=args.rays)
    print(report.summary())
    return 0 if report.all_detected else 1


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.simlint import all_rules, lint_paths, render_json, render_text

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.category}] {rule.title}")
            print(f"       {rule.rationale}")
        return 0
    report = lint_paths(args.paths or ["src"])
    text = render_json(report) if args.format == "json" else render_text(report)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    return report.exit_code


def _cmd_overhead() -> int:
    print(sms_hardware_overhead().summary())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scenes":
            return _cmd_scenes()
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "ablate":
            return _cmd_ablate(args)
        if args.command == "overhead":
            return _cmd_overhead()
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "lint":
            return _cmd_lint(args)
        parser.error(f"unknown command {args.command!r}")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
