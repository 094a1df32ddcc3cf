"""Command-line entry point.

    python -m repro list                      # show available experiments
    python -m repro run fig7 [--scale 0.2]    # run one experiment
    python -m repro run all --output results/ # run everything, save reports
    python -m repro scenarios --preset steady [--scale 0.5]  # one job mix
    python -m repro bench [--profile]         # sim-kernel perf scenarios
    python -m repro report [--scale 0.2] [--only fig7 fig8]  # EXPERIMENTS.md

An experiment is an id and a scale: ``repro run`` is its one door.  The
paper's §6 extension is four ids -- ``distributed`` (static scaling),
``distributed_elastic`` (churn and failure), ``distributed_overlap``
(topology x overlap) and ``distributed_checkpoint`` (checkpoint economics).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .errors import ConfigurationError
from .experiments import REGISTRY, run_experiments
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
    failures = 0
    for result in run_experiments(ids, args.scale):
        print(result.render())
        print()
        if args.output:
            path = result.save(args.output)
            print(f"saved {path}", file=sys.stderr)
        if not result.all_passed:
            failures += 1
    return 1 if failures else 0


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
    """Run one preset job mix on a shared cluster (``--preset``) and print
    its per-tenant summary, or list the presets (``--list``).  The sweep
    over every preset, with its shape checks, is ``repro run scenarios``."""
    from .sim.scenarios import PRESETS, run_preset

    if args.list:
        width = max(len(name) for name in PRESETS)
        for name, build in sorted(PRESETS.items()):
            doc = (build.__doc__ or "").strip().splitlines()[0]
            print(f"{name:{width}s}  {doc}")
        return 0
    if args.preset is None:
        raise ConfigurationError(
            "name a --preset or pass --list; the sweep over every preset "
            "is `repro run scenarios`"
        )
    scale = 1.0 if args.scale is None else args.scale
    print(run_preset(args.preset, scale=scale).summary())
    return 0


def _cmd_report(args) -> int:
    content = report_module.generate(scale=args.scale, experiment_ids=args.only)
    with open(args.output, "w") as fh:
        fh.write(content)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        # the usage lines are one command each: keep them as written
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run an experiment (or 'all')")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--scale", type=float, default=None)
    run_parser.add_argument("--output", default=None, help="directory for reports")

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
        "--scale",
        type=float,
        default=None,
        help="step-budget scale factor (default 1.0)",
    )
    scenarios_parser.add_argument(
        "--list", action="store_true", help="list available presets"
    )

    report_parser = sub.add_parser("report", help="generate EXPERIMENTS.md")
    report_parser.add_argument("--scale", type=float, default=None)
    report_parser.add_argument("--output", default="EXPERIMENTS.md")
    report_parser.add_argument(
        "--only", nargs="*", default=None, help="subset of experiment ids"
    )

    args = parser.parse_args(argv)
    commands = {
        "list": _cmd_list,
        "run": _cmd_run,
        "bench": _cmd_bench,
        "scenarios": _cmd_scenarios,
        "report": _cmd_report,
    }
    try:
        status = commands[args.command](args)
        sys.stdout.flush()
    except ConfigurationError as exc:
        # a configuration the program refuses (a scale outside (0, 1], an
        # unknown experiment id): one line on stderr, not a traceback
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
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
