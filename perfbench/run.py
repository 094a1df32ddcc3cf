#!/usr/bin/env python3
"""One workload in one fresh interpreter: the benchmark's measured process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` is the untraced phase: set-up (imports, inputs generated from
the seed three times over, one warm-up repetition), then timed repetitions
until at least three have run and ``S`` seconds have been measured; every
end-to-end metric is the median over them.  ``--trace 1`` is the traced
phase: the warm-up as untraced reference, one repetition under the layer
tracer with the counting clock and the timing batch source passed in, the
plain torch-style baseline on the same inputs, and the micro-benches.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``.  ``--out DIR`` also writes the full
record (quartiles, repetitions, set-up parts, ``sim_digest``, environment)
and the harness spans as a Chrome trace.  Without it nothing is written.
"""

import time

_STARTED = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _quartiles(values) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    """Where the numbers were taken; ``noisy`` flags a loaded machine."""
    import numpy

    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": nproc, "loadavg_1m": load, "noisy": load > nproc,
    }


class _Repetition:
    def __init__(self, wall_s, cpu_s, summary) -> None:
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.summary = summary

    def row(self) -> dict:
        s = self.summary
        return {
            "wall_s": self.wall_s, "cpu_s": self.cpu_s, "train_s": s.train_s,
            "gpu_util": s.gpu_util, "samples": s.samples, "attempted": s.attempted,
            "failed": s.failed, "sim_digest": s.digest,
        }


def _repeat(run, summarize, spans, name, tracer=None) -> _Repetition:
    """Time one call of ``run``; judge its result outside the timed region."""
    # garbage left by the previous repetition is otherwise collected inside
    # this one (the first repetition of a process measured up to 15 % fast)
    gc.collect()
    with spans.span(name):
        cpu = time.process_time()
        wall = time.perf_counter()
        if tracer is not None:
            with tracer:
                raw = run()
        else:
            raw = run()
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
    return _Repetition(wall, cpu, summarize(raw))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = load_spec()
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, one repetition")
    parser.add_argument("--out", help="directory for the full record and the Chrome trace")
    args = parser.parse_args(argv)

    from perfbench import calibrate, trace, workloads

    spans = trace.Spans()
    imported = time.perf_counter()
    spans.add("import", _STARTED, imported, None)

    builds = []
    with spans.span("build inputs x3"):
        for _ in range(3):
            start = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)
            builds.append(time.perf_counter() - start)
    calibration = None
    if not args.trace:
        calibration = calibrate.Calibration()
        calibration.slice()
    warmup = _repeat(workload.run, workload.summarize, spans, "warm-up")
    setup = {"import_s": imported - _STARTED, "build_s": builds, "warmup_s": warmup.wall_s}

    repetitions = [warmup]
    record = {
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "trace": args.trace, "environment": environment(), "setup": setup,
    }
    if args.trace:
        values = _traced_phase(args, workload, warmup, spans, repetitions, record)
        listed = spec["per_layer"]
    else:
        values = _untraced_phase(args, workload, setup, calibration, spans, repetitions, record)
        listed = spec["end_to_end"]

    errors = [e for r in repetitions for e in r.summary.errors]
    digests = {r.summary.digest for r in repetitions}
    if len(digests) > 1:
        errors.append(f"sim_digest differs between repetitions: {sorted(digests)}")
    attempted = sum(r.summary.attempted for r in repetitions)
    failed = sum(r.summary.failed for r in repetitions)
    correct = failed == 0 and not errors
    record.update(
        sim_digest=repetitions[0].summary.digest, errors=errors,
        repetitions=[r.row() for r in repetitions],
        ops_attempted=attempted, ops_failed=failed, correct=correct,
    )

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    unlisted = sorted(set(values) - set(metrics))
    if unlisted:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {unlisted}")
    record["metrics"] = metrics

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"sim_digest={record['sim_digest']} ops {failed} failed / {attempted}")
    for error in errors:
        print(f"  ERROR {error}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(args.out, f"{args.workload}.trace{args.trace}")
        with open(stem + ".json", "w") as handle:
            json.dump(record, handle, indent=1)
        spans.write_chrome_trace(stem + ".chrome.json")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


def _untraced_phase(args, workload, setup, calibration, spans, repetitions, record) -> dict:
    timed = []
    measured = 0.0
    while not timed or (not args.quick and (len(timed) < 3 or measured < args.seconds)):
        calibration.slice()
        rep = _repeat(workload.run, workload.summarize, spans, f"repetition {len(timed)}")
        timed.append(rep)
        measured += rep.wall_s
    calibration.slice()
    repetitions.extend(timed)

    # CPU time always scales with the host's speed; wall time only where the
    # repetition is interpreter work and not pacing or a scaled clock
    speed = calibration.speed()
    wall_speed = speed if workload.host_bound else 1.0
    spread = {
        "wall_s": _quartiles([wall_speed * r.wall_s for r in timed]),
        "train_s": _quartiles([r.summary.train_s for r in timed]),
        "gpu_util": _quartiles([r.summary.gpu_util for r in timed]),
        "cpu_us_per_sample": _quartiles(
            [speed * 1e6 * r.cpu_s / max(r.summary.samples, 1) for r in timed]
        ),
    }
    record["end_to_end"] = spread
    record["calibration"] = {
        "slices_s": calibration.slices, "reference_s": calibration.REFERENCE_S,
        "speed": speed, "applied_to_wall": workload.host_bound,
    }
    values = {name: q["median"] for name, q in spread.items()}
    values["setup_s"] = (
        setup["import_s"] + statistics.median(setup["build_s"]) + setup["warmup_s"]
    ) * wall_speed
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


#: counts a workload reports only if it exercises the layer; 0 otherwise
_COUNTS = (
    "sim.fabric.collectives", "sim.fabric.collapsed_collectives",
    "sim.fabric.collapse_frac", "sim.fabric.cross_vetoes",
    "sim.links.wait_collective_s", "sim.links.wait_loader_s",
    "sim.links.wait_checkpoint_s", "sim.checkpoint.write_s",
    "sim.checkpoint.restore_s", "sim.checkpoint.lost_steps",
    "sim.distributed.steps", "sim.distributed.exposed_sync_s",
    "sim.loaders.samples", "sim.loaders.slow_frac",
    "data.storage.cache_hit_rate", "data.storage.disk_gb",
    "core.loader.idle_polls", "core.loader.idle_poll_s",
    "core.loader.batch_wait_p50_ms", "core.loader.batch_wait_hi_ms",
    "core.loader.batch_wait_hi_pct", "core.loader.batch_wait_n",
    "core.loader.slow_frac", "core.loader.peak_workers",
    "core.loader.peak_samples_per_s",
    "baselines.torch.train_s", "baselines.torch.cpu_us_per_sample",
)


def _traced_phase(args, workload, warmup, spans, repetitions, record) -> dict:
    from perfbench import micro, trace, workloads

    probe = workloads.Probe(spans)
    tracer = trace.LayerTracer()
    traced = _repeat(
        lambda: workload.run(probe), lambda raw: workload.summarize(raw, probe),
        spans, "traced repetition", tracer,
    )
    repetitions.append(traced)

    values = dict.fromkeys(_COUNTS, 0.0)
    values.update(traced.summary.counts)
    table = tracer.by_layer()
    for bucket, row in table.items():
        values[f"{bucket}.self_s"] = row["self_s"]
        if bucket in trace.LAYERS:
            values[f"{bucket}.calls"] = row["calls"]
        if bucket in trace.WAIT_LAYERS:
            values[f"{bucket}.wait_s"] = row["wait_s"]
    events = tracer.calls_to("sim/kernel.py", "step")
    values["sim.kernel.events"] = events
    # host time per event from the untraced reference, not the traced run
    values["sim.kernel.wall_us_per_event"] = 1e6 * warmup.wall_s / events if events else 0.0
    values["perfbench.traced_wall_s"] = traced.wall_s
    total = sum(row["self_s"] for row in table.values())
    if workload.host_bound and abs(total - tracer.wall_s) > 0.05 * tracer.wall_s:
        # single-threaded: every traced second belongs to exactly one bucket
        traced.summary.errors.append(
            f"layer self times sum to {total:.3f} s, traced wall is {tracer.wall_s:.3f} s"
        )
    values["perfbench.trace_overhead_x"] = traced.wall_s / warmup.wall_s

    if hasattr(workload, "run_torch"):
        torch = _repeat(workload.run_torch, workload.summarize, spans, "torch-style baseline")
        repetitions.append(torch)
        values["baselines.torch.train_s"] = torch.summary.train_s
        values["baselines.torch.cpu_us_per_sample"] = (
            1e6 * torch.cpu_s / max(torch.summary.samples, 1)
        )
    if hasattr(workload, "run_unpaced"):
        unpaced = _repeat(workload.run_unpaced, workload.summarize, spans, "unpaced")
        repetitions.append(unpaced)
        values["core.loader.peak_samples_per_s"] = unpaced.summary.samples / unpaced.wall_s

    with spans.span("micro-benches"):
        rows = micro.run_micro(args.quick)
    values.update({name: row["value"] for name, row in rows.items()})
    record["micro"] = rows
    record["by_layer"] = table
    return values


if __name__ == "__main__":
    # the script directory would shadow the stdlib's ``trace``; the repository
    # root makes ``perfbench`` a package and ``src`` supplies ``repro``
    sys.path[0] = ROOT
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("perfbench: src/repro not found beside perfbench/; run from a full checkout")
    sys.path.insert(1, os.path.join(ROOT, "src"))
    sys.exit(main())
