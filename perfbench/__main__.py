"""Command line: ``PYTHONPATH=src python -m perfbench {run,micro,selfcheck}``.

``run`` measures every workload, each phase in a fresh child interpreter
(``perfbench/run.py``), and prints every metric by name with its unit.
``selfcheck`` runs the untraced phase twice and fails if the two disagree
beyond the bounds in ``BENCHMARK.json``; it is also how the bounds were set.
``micro`` prints the micro-bench rows alone.  Full records and Chrome traces
go to ``--out`` (default: a fresh temporary directory, so the work tree stays
clean).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from perfbench.run import ROOT, load_spec, environment

RUN_PY = os.path.join(ROOT, "perfbench", "run.py")


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _header(args) -> dict:
    info = dict(environment(), commit=_commit(), seed=args.seed, quick=args.quick)
    print(
        f"perfbench  commit {info['commit'][:12]}  seed {info['seed']}  nproc {info['nproc']}  "
        f"python {info['python']}  numpy {info['numpy']}  load {info['loadavg_1m']:.2f}"
        + ("  NOISY: load average exceeds nproc" if info["noisy"] else "")
    )
    return info


def _spawn(args, workload: str, seed: int, trace: int, out: str):
    """Start one phase of one workload in a fresh interpreter."""
    command = [
        sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
    ]
    if args.quick:
        command.append("--quick")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return child, os.path.join(out, f"{workload}.trace{trace}.json")


def _collect(started) -> dict:
    """Wait for a child from :func:`_spawn`; its full record."""
    child, record = started
    output, _ = child.communicate()
    if child.returncode != 0:
        sys.exit(f"perfbench: {' '.join(child.args)} failed:\n{output}")
    with open(record) as handle:
        return json.load(handle)


def _child(args, workload: str, seed: int, trace: int, out: str) -> dict:
    return _collect(_spawn(args, workload, seed, trace, out))


def _workloads(args, spec) -> list:
    return args.workload or [w["name"] for w in spec["workloads"]]


def _add_common(parser, spec) -> None:
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--quick", action="store_true", help="tiny sizes, one repetition")
    parser.add_argument("--out", help="directory for records and traces (default: temporary)")


def cmd_run(args, spec) -> int:
    out = args.out or tempfile.mkdtemp(prefix="perfbench-")
    _header(args)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed_total = 0
    for workload in _workloads(args, spec):
        print(f"\n== {workload}: {why[workload]}")
        traces = (0,) if args.no_trace else (0, 1)
        if args.quick:
            # nothing --quick times is meant to be read: run the phases side by side
            started = [_spawn(args, workload, args.seed, t, out) for t in traces]
            records = [_collect(child) for child in started]
        else:
            records = [_child(args, workload, args.seed, t, out) for t in traces]
        spread = records[0]["end_to_end"]
        print("  end-to-end, untraced (median [q1 .. q3] over n repetitions; bound):")
        for name, metric in records[0]["metrics"].items():
            line = f"    {name:<22} {metric['value']:>12.6g} {metric['unit']:<9}"
            if name in spread:
                q = spread[name]
                line += f"[{q['q1']:.6g} .. {q['q3']:.6g}] n={q['n']}"
            print(f"{line:<78} bound {bounds[name]:.0%}")
        if not args.no_trace:
            print("  per-layer, traced repetition:")
            for name, metric in records[1]["metrics"].items():
                print(f"    {name:<40} {metric['value']:>14.6g} {metric['unit']}")
        for record in records:
            failed_total += record["ops_failed"] + len(record["errors"])
            print(f"  trace={record['trace']}: ops {record['ops_failed']} failed / "
                  f"{record['ops_attempted']} attempted, sim_digest {record['sim_digest']}")
            for error in record["errors"]:
                print(f"    ERROR {error}")
    print(f"\nrecords and Chrome traces: {out}")
    return 1 if failed_total else 0


def cmd_micro(args, spec) -> int:
    from perfbench.micro import run_micro

    for name, row in run_micro(args.quick).items():
        print(f"{name:<40} {row['value']:>14.6g} 1/s   "
              f"({row['operations']} operations in {row['seconds']:.3f} s)")
    return 0


def _spread(values) -> float:
    """Inter-quartile distance as a share of the median, as the driver takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_selfcheck(args, spec) -> int:
    out = args.out or tempfile.mkdtemp(prefix="perfbench-")
    info = _header(args)
    metrics = spec["end_to_end"]
    # sets[set][workload][metric] -> one value per run (seed, seed+1, ...)
    sets = []
    # spread of the first run's repetitions, used when a set is a single run
    within = {}
    for _ in range(2):
        values: dict = {}
        for workload in _workloads(args, spec):
            runs = [_child(args, workload, args.seed + i, 0, out) for i in range(args.runs)]
            if any(not r["correct"] for r in runs):
                sys.exit(f"perfbench: {workload} failed its correctness checks")
            values[workload] = {
                m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in metrics
            }
            within.setdefault(workload, {
                name: (q["q3"] - q["q1"]) / q["median"]
                for name, q in runs[0]["end_to_end"].items()
            })
        sets.append(values)

    print(f"\n{'workload':<14} {'metric':<18} {'median 1':>12} {'median 2':>12} "
          f"{'change':>8} {'spread':>8} {'bound':>6}")
    rows, bad = [], 0
    for workload in sets[0]:
        for m in metrics:
            name = m["name"]
            first, second = sets[0][workload][name], sets[1][workload][name]
            m1, m2 = statistics.median(first), statistics.median(second)
            change = (m2 - m1) / m1
            spread = _spread(first) if args.runs > 1 else within[workload].get(name, 0.0)
            # set-up is exempt from the spread rule: it runs once per process
            over = abs(change) > m["bound"] or (name != "setup_s" and spread > m["bound"])
            bad += over
            rows.append({"workload": workload, "metric": name, "median_1": m1,
                         "median_2": m2, "change": change, "spread": spread,
                         "bound": m["bound"], "values_1": first, "values_2": second})
            print(f"{workload:<14} {name:<18} {m1:>12.6g} {m2:>12.6g} {change:>+8.1%} "
                  f"{spread:>8.1%} {m['bound']:>6.0%}{'  OVER' if over else ''}")
    with open(os.path.join(out, "selfcheck.json"), "w") as handle:
        json.dump({"environment": info, "runs_per_set": args.runs, "rows": rows}, handle, indent=1)
    print(f"\n{bad} metric/workload pairs beyond their bound; record: {out}/selfcheck.json")
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure and print every metric")
    _add_common(run, spec)
    run.add_argument("--no-trace", action="store_true", help="skip the traced phase")
    micro = commands.add_parser("micro", help="micro-benches only")
    micro.add_argument("--quick", action="store_true")
    check = commands.add_parser("selfcheck", help="run the untraced phase twice and compare")
    _add_common(check, spec)
    check.add_argument("--runs", type=int, default=1,
                       help="runs per set, each on its own seed (the driver uses 10)")
    args = parser.parse_args(argv)
    return {"run": cmd_run, "micro": cmd_micro, "selfcheck": cmd_selfcheck}[args.command](args, spec)


if __name__ == "__main__":
    sys.exit(main())
