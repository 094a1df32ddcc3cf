"""Command-line entry point.

    python -m repro list                      # show available experiments
    python -m repro run fig7 [--scale 0.2]    # run one experiment
    python -m repro run all --output results/ # run everything, save reports
    python -m repro distributed [--elastic [--checkpoint]]  # scaling / churn
    python -m repro bench [--profile]         # sim-kernel perf scenarios
    python -m repro report [--scale 0.2]      # (re)generate EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .experiments import REGISTRY
from .experiments import report as report_module


def _cmd_list(_args) -> int:
    width = max(len(k) for k in REGISTRY)
    for experiment_id, runner in REGISTRY.items():
        doc = (sys.modules[runner.__module__].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{experiment_id:{width}s}  {summary}")
    return 0


def _cmd_run(args) -> int:
    ids = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    failures = 0
    for experiment_id in ids:
        runner = REGISTRY[experiment_id]
        if args.scale is not None and experiment_id not in ("table2", "fig2"):
            result = runner(scale=args.scale)  # type: ignore[call-arg]
        else:
            result = runner()
        print(result.render())
        print()
        if args.output:
            path = result.save(args.output)
            print(f"saved {path}", file=sys.stderr)
        if not result.all_passed:
            failures += 1
    return 1 if failures else 0


def _cmd_distributed(args) -> int:
    """Shortcut for the distributed experiments: ``--elastic`` runs the
    churn/failure membership scenarios on the modelled ring fabric,
    ``--reshard`` picks the elastic re-shard policy (``locality`` keeps
    survivors on overlapping shard blocks so their page caches stay warm),
    ``--fabric`` / ``--overlap`` / ``--buckets`` run the
    topology-overlap matrix ({flat, hierarchical} x {serial, overlap})
    featuring the requested arm, and ``--elastic --checkpoint`` runs the
    checkpoint-interval economics experiment (``--checkpoint-interval`` /
    ``--restore`` feature one arm with that exact policy)."""
    wants_overlap_matrix = (
        args.fabric is not None or args.overlap or args.buckets is not None
    )
    if args.reshard != "stride" and not args.elastic:
        print("--reshard applies to elastic runs; pass --elastic", file=sys.stderr)
        return 2
    if args.checkpoint and not args.elastic:
        print(
            "--checkpoint runs the elastic checkpoint experiment; "
            "pass --elastic",
            file=sys.stderr,
        )
        return 2
    if (
        args.checkpoint_interval is not None or args.restore is not None
    ) and not args.checkpoint:
        print(
            "--checkpoint-interval/--restore require --checkpoint",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_interval is not None and args.checkpoint_interval < 1:
        print(
            f"--checkpoint-interval must be >= 1, got "
            f"{args.checkpoint_interval}",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint and args.reshard != "stride":
        print(
            "--reshard applies to the elastic churn experiment; it cannot "
            "be combined with --checkpoint",
            file=sys.stderr,
        )
        return 2
    if wants_overlap_matrix and args.elastic:
        print(
            "--fabric/--overlap/--buckets run the static topology-overlap "
            "matrix; they cannot be combined with --elastic",
            file=sys.stderr,
        )
        return 2
    if args.buckets is not None and args.buckets < 1:
        print(f"--buckets must be >= 1, got {args.buckets}", file=sys.stderr)
        return 2
    if args.elastic and args.checkpoint:
        experiment_id = "distributed_checkpoint"
    elif args.elastic:
        experiment_id = "distributed_elastic"
    elif wants_overlap_matrix:
        experiment_id = "distributed_overlap"
    else:
        experiment_id = "distributed"
    runner = REGISTRY[experiment_id]
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if experiment_id == "distributed_elastic":
        kwargs["reshard"] = args.reshard
    if experiment_id == "distributed_checkpoint":
        if args.checkpoint_interval is not None:
            kwargs["interval"] = args.checkpoint_interval
        if args.restore is not None:
            kwargs["restore"] = args.restore
    if experiment_id == "distributed_overlap":
        kwargs["topology"] = args.fabric if args.fabric is not None else "flat"
        kwargs["overlap"] = args.overlap
        if args.buckets is not None:
            kwargs["buckets"] = args.buckets
    result = runner(**kwargs)
    print(result.render())
    if args.output:
        path = result.save(args.output)
        print(f"saved {path}", file=sys.stderr)
    return 0 if result.all_passed else 1


def _cmd_bench(args) -> int:
    """Run the sim-kernel perf scenarios (:mod:`repro.sim.bench`).

    ``--profile`` wraps the optimized run of each selected scenario in
    cProfile and prints the top cumulative-time entries -- the entry point
    for "where do the kernel's cycles actually go" questions; ``--census``
    answers "which events are they": delivered events by event type and
    waiting generator, with shares."""
    from .sim import bench

    if args.list:
        width = max(len(s.name) for s in bench.SCENARIOS)
        for scenario in bench.SCENARIOS:
            print(
                f"{scenario.name:{width}s}  {scenario.ranks:4d} ranks  "
                f"{scenario.topology}/"
                f"{'overlap' if scenario.overlap else 'serial'}"
                f"{'  +churn' if scenario.events else ''}"
            )
        return 0
    names = args.scenario or None
    try:
        if names:
            for name in names:
                bench.scenario_by_name(name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.census:
        for name in names or [s.name for s in bench.SCENARIOS]:
            print(f"== {name}")
            print(
                bench.render_census(
                    bench.census(bench.scenario_by_name(name)), args.top
                )
            )
        return 0
    if args.profile:
        import cProfile
        import pstats

        for name in names or [s.name for s in bench.SCENARIOS]:
            scenario = bench.scenario_by_name(name)
            profile = cProfile.Profile()
            profile.enable()
            result, wall = scenario.run(collapse=True)
            profile.disable()
            print(
                f"== {name}: {wall:.2f}s wall, {result.sim_events} events, "
                f"{bench.collapsed_collectives(result)} collapsed collectives"
            )
            stats = pstats.Stats(profile, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(args.top)
        return 0
    report = bench.run_benchmarks(names)
    for scenario in report["scenarios"]:
        optimized = scenario["optimized"]
        line = (
            f"{scenario['name']:28s} {scenario['ranks']:4d} ranks  "
            f"wall {optimized['wall_seconds']:6.2f}s  "
            f"{optimized['events_per_sec']:9.0f} ev/s  "
            f"collapsed {optimized['collapsed_collectives']}"
        )
        if "speedup" in scenario:
            line += f"  speedup {scenario['speedup']:.2f}x"
        print(line)
    if args.output:
        bench.write_report(report, args.output)
        print(f"saved {args.output}", file=sys.stderr)
    return 0


def _cmd_scenarios(args) -> int:
    """Run a multi-tenant scenario: one preset job mix on a shared cluster
    (``--preset``), or the full preset sweep with shape checks when no
    preset is named."""
    from .sim.scenarios import PRESETS, run_preset

    if args.list:
        width = max(len(name) for name in PRESETS)
        for name, build in sorted(PRESETS.items()):
            doc = (build.__doc__ or "").strip().splitlines()[0]
            print(f"{name:{width}s}  {doc}")
        return 0
    if args.preset is not None:
        if args.preset not in PRESETS:
            print(
                f"unknown preset {args.preset!r}; expected one of "
                f"{sorted(PRESETS)}",
                file=sys.stderr,
            )
            return 2
        mix_result = run_preset(args.preset, scale=args.scale or 1.0)
        print(mix_result.summary())
        return 0
    runner = REGISTRY["scenarios"]
    kwargs = {"scale": args.scale} if args.scale is not None else {}
    result = runner(**kwargs)
    print(result.render())
    if args.output:
        path = result.save(args.output)
        print(f"saved {path}", file=sys.stderr)
    return 0 if result.all_passed else 1


def _cmd_report(args) -> int:
    report_module.main(
        (["--scale", str(args.scale)] if args.scale is not None else [])
        + ["--output", args.output]
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run an experiment (or 'all')")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--scale", type=float, default=None)
    run_parser.add_argument("--output", default=None, help="directory for reports")

    dist_parser = sub.add_parser(
        "distributed", help="multi-node scaling / elastic-membership runs"
    )
    dist_parser.add_argument(
        "--checkpoint",
        action="store_true",
        help=(
            "with --elastic: run the checkpoint-interval economics "
            "experiment (snapshot writes on the storage pipes, restore "
            "after a node failure)"
        ),
    )
    dist_parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="K",
        help="feature an arm snapshotting every K steps (requires --checkpoint)",
    )
    dist_parser.add_argument(
        "--restore",
        choices=["storage", "peer"],
        default=None,
        help=(
            "feature an arm restoring from storage shards or a surviving "
            "peer's stream (requires --checkpoint)"
        ),
    )
    dist_parser.add_argument(
        "--elastic",
        action="store_true",
        help="run the elastic churn/failure scenarios on the ring fabric",
    )
    dist_parser.add_argument(
        "--reshard",
        choices=["stride", "locality"],
        default="stride",
        help=(
            "elastic re-shard policy: stride (fresh random shards) or "
            "locality (contiguous blocks, survivors keep overlapping "
            "shards so their page caches stay warm)"
        ),
    )
    dist_parser.add_argument(
        "--fabric",
        choices=["flat", "hierarchical"],
        default=None,
        help=(
            "collective topology for the overlap matrix: flat (one "
            "world-wide NIC ring) or hierarchical (intra-node NVLink "
            "rings + one inter-node NIC ring)"
        ),
    )
    dist_parser.add_argument(
        "--overlap",
        action="store_true",
        help=(
            "bucket gradients and launch each bucket's collective as its "
            "slice of backward completes (reports exposed vs total sync)"
        ),
    )
    dist_parser.add_argument(
        "--buckets",
        type=int,
        default=None,
        help="gradient buckets per step for the overlap arms (default 4)",
    )
    dist_parser.add_argument("--scale", type=float, default=None)
    dist_parser.add_argument("--output", default=None, help="directory for reports")

    bench_parser = sub.add_parser(
        "bench", help="sim-kernel perf scenarios (BENCH_kernel.json)"
    )
    bench_parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="scenario name (repeatable; default: the whole grid)",
    )
    bench_parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    bench_parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the optimized run of each scenario (skips baselines)",
    )
    bench_parser.add_argument(
        "--census",
        action="store_true",
        help=(
            "count each scenario's delivered kernel events by event type "
            "and waiting generator (name:line), with shares"
        ),
    )
    bench_parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="rows of output per scenario (with --profile / --census)",
    )
    bench_parser.add_argument(
        "--output",
        default=None,
        help="write the JSON report here (e.g. BENCH_kernel.json)",
    )

    scenarios_parser = sub.add_parser(
        "scenarios",
        help="multi-tenant job mixes on a shared cluster",
    )
    scenarios_parser.add_argument(
        "--preset",
        default=None,
        help="run one named preset mix (steady, burst, checkpoint_heavy, "
        "worker_failure, "
        "network_partition) and print its per-tenant summary",
    )
    scenarios_parser.add_argument(
        "--scale", type=float, default=None, help="step-budget scale factor"
    )
    scenarios_parser.add_argument(
        "--list", action="store_true", help="list available presets"
    )
    scenarios_parser.add_argument(
        "--output", default=None, help="save the sweep report here"
    )

    report_parser = sub.add_parser("report", help="generate EXPERIMENTS.md")
    report_parser.add_argument("--scale", type=float, default=None)
    report_parser.add_argument("--output", default="EXPERIMENTS.md")

    args = parser.parse_args(argv)
    commands = {
        "list": _cmd_list,
        "run": _cmd_run,
        "distributed": _cmd_distributed,
        "bench": _cmd_bench,
        "scenarios": _cmd_scenarios,
        "report": _cmd_report,
    }
    try:
        status = commands[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``repro bench --census | head``): point
        # stdout at devnull so the interpreter's exit flush cannot fail
        # again, and end without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
