"""Benchmark: the sim-kernel perf trajectory (BENCH_kernel.json).

Unlike the figure benchmarks, this suite measures the *simulator itself*:
wall-clock and events/sec for the fixed scenario grid in
:mod:`repro.sim.bench`, comparing the homogeneous-rank collapse against
the exact per-rank fabric (``collapse=False``) on the one kernel.

Two modes:

* default -- the two 64-rank scenarios as a smoke check (seconds), so the
  tier-1 sweep stays fast and the committed ``BENCH_kernel.json`` is left
  untouched;
* ``REPRO_KERNEL_BENCH=full`` -- the whole grid including the 256-rank
  gate scenario and the 1000-rank elastic run; regenerates
  ``BENCH_kernel.json`` in the repo root and enforces the speedup
  regression gate against the committed report (ratios, not absolute
  wall-clock, so the gate is machine-independent).
"""

import json
import os
import pathlib

import pytest

from repro.sim.bench import (
    GATE_SCENARIO,
    SCENARIOS,
    run_benchmarks,
    write_report,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_PATH = ROOT / "BENCH_kernel.json"
FULL = os.environ.get("REPRO_KERNEL_BENCH", "").lower() in {"full", "1", "true"}
SMOKE = ["flat-serial-static-64", "flat-overlap-static-64"]

#: a fresh run must keep at least this fraction of the committed
#: gate-scenario speedup (the CI regression gate)
GATE_KEEP_FRACTION = 0.8

requires_full = pytest.mark.skipif(
    not FULL, reason="set REPRO_KERNEL_BENCH=full for the complete grid"
)


@pytest.fixture(scope="module")
def reports():
    committed = (
        json.loads(REPORT_PATH.read_text()) if REPORT_PATH.exists() else None
    )
    fresh = run_benchmarks(None if FULL else SMOKE)
    if FULL:
        write_report(fresh, str(REPORT_PATH))
    return {"fresh": fresh, "committed": committed}


def entry(report, name):
    for scenario in report["scenarios"]:
        if scenario["name"] == name:
            return scenario
    raise AssertionError(f"scenario {name} missing from report")


def test_fast_paths_are_timing_exact(reports):
    """Every scenario with a measured per-rank baseline must agree exactly --
    run_scenario raises otherwise, so surviving entries carry the flag."""
    measured = [
        s for s in reports["fresh"]["scenarios"] if "baseline" in s
    ]
    assert measured, "no baseline-measured scenarios ran"
    assert all(s["results_identical"] for s in measured)


def test_collapse_engages_on_homogeneous_static(reports):
    static = entry(reports["fresh"], "flat-serial-static-64")
    assert static["optimized"]["collapsed_collectives"] > 0


def test_optimized_kernel_not_slower(reports):
    """Where the collapse never engages the two runs are the same work, so
    the ratio reads ~1.0x; arming it must not lose ground anywhere (small
    tolerance for wall-clock noise)."""
    for scenario in reports["fresh"]["scenarios"]:
        if "speedup" in scenario:
            assert scenario["speedup"] > 0.8, scenario["name"]


@requires_full
def test_gate_scenario_speedup(reports):
    fresh = entry(reports["fresh"], GATE_SCENARIO)
    assert fresh["optimized"]["collapsed_collectives"] > 0
    committed = reports["committed"]
    if committed is not None:
        baseline_speedup = entry(committed, GATE_SCENARIO)["speedup"]
        assert fresh["speedup"] >= GATE_KEEP_FRACTION * baseline_speedup, (
            f"{GATE_SCENARIO} speedup regressed: {fresh['speedup']:.2f}x "
            f"vs committed {baseline_speedup:.2f}x"
        )
    else:
        # first generation: hold the absolute line the report ships with
        assert fresh["speedup"] >= 5.0


@requires_full
def test_thousand_rank_elastic_tractable(reports):
    scale = entry(reports["fresh"], "hier-serial-elastic-1000")
    assert scale["ranks"] == 1000
    assert scale["optimized"]["collapsed_collectives"] >= 1
    # committed report documents ~26s on the reference machine; allow
    # slower CI hardware without letting it degenerate to minutes
    assert scale["optimized"]["wall_seconds"] < 60.0


def test_scenario_grid_shape():
    """The grid keeps covering the advertised axes."""
    names = {s.name for s in SCENARIOS}
    assert GATE_SCENARIO in names
    topologies = {s.topology for s in SCENARIOS}
    assert topologies == {"flat", "hierarchical"}
    assert any(s.overlap for s in SCENARIOS)
    assert any(s.events for s in SCENARIOS)
    assert {s.ranks for s in SCENARIOS} == {64, 256, 1000}
    # the multi-tenant axis: at least one scenario runs a shared-cluster
    # job mix, so kernel cost under contention stays measured
    assert any(s.jobs > 1 for s in SCENARIOS)
    # the checkpoint axis: at least one scenario prices snapshot writes
    # plus a failure restore, and it must still measure the exact-path
    # baseline so the kernels' agreement stays enforced under recovery
    assert any(
        s.checkpoint is not None and s.events and s.measure_baseline
        for s in SCENARIOS
    )
    # the cross-class contention axis: loader misses and checkpoint writes
    # sharing the NIC with hierarchical overlapped collectives, with the
    # baseline measured so the shared-link flow engine stays agreement-
    # checked under contention
    assert any(
        s.storage_over_nic
        and s.topology == "hierarchical"
        and s.overlap
        and s.checkpoint is not None
        and s.measure_baseline
        for s in SCENARIOS
    )
