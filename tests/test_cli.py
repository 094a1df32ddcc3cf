"""Tests for the command-line interface (python -m repro)."""

import dataclasses
import os

import pytest

from repro.__main__ import main
from repro.sim import bench


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out
    assert "table2" in out
    assert "distributed" in out


def test_cli_run_single_experiment(capsys):
    assert main(["run", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out
    assert "PASS" in out


def test_cli_distributed_elastic(capsys):
    """`python -m repro distributed --elastic` runs the churn/failure
    membership scenarios end-to-end and its measured checks pass."""
    assert main(["distributed", "--elastic", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "distributed_elastic" in out
    assert "churn" in out
    assert "failure" in out
    assert "MISS" not in out


def test_cli_distributed_elastic_reshard_locality(capsys):
    """`--reshard locality` runs the elastic scenarios on block-layout
    shards with the locality slot assignment, and the stride-vs-locality
    comparison arm's checks pass."""
    assert (
        main(["distributed", "--elastic", "--reshard", "locality", "--scale", "0.05"])
        == 0
    )
    out = capsys.readouterr().out
    assert "locality" in out
    assert "MISS" not in out


def test_cli_distributed_elastic_checkpoint(capsys):
    """`python -m repro distributed --elastic --checkpoint` runs the
    checkpoint-interval economics experiment and its tradeoff checks
    (middle interval strictly beats both extremes under the failure)
    pass."""
    assert main(["distributed", "--elastic", "--checkpoint"]) == 0
    out = capsys.readouterr().out
    assert "distributed_checkpoint" in out
    assert "tradeoff cuts both ways" in out
    assert "MISS" not in out


def test_cli_distributed_checkpoint_featured_arm(capsys):
    assert (
        main(
            [
                "distributed",
                "--elastic",
                "--checkpoint",
                "--checkpoint-interval",
                "8",
                "--restore",
                "peer",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "featured arm (--checkpoint-interval 8 --restore peer)" in out
    assert "MISS" not in out


def test_cli_checkpoint_requires_elastic(capsys):
    assert main(["distributed", "--checkpoint"]) == 2
    err = capsys.readouterr().err
    assert "--elastic" in err


def test_cli_checkpoint_flags_require_checkpoint(capsys):
    assert main(["distributed", "--elastic", "--checkpoint-interval", "4"]) == 2
    assert "--checkpoint" in capsys.readouterr().err
    assert main(["distributed", "--elastic", "--restore", "peer"]) == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_cli_checkpoint_rejects_non_positive_interval(capsys):
    assert (
        main(
            [
                "distributed",
                "--elastic",
                "--checkpoint",
                "--checkpoint-interval",
                "0",
            ]
        )
        == 2
    )
    assert ">= 1" in capsys.readouterr().err


def test_cli_checkpoint_rejects_reshard(capsys):
    assert (
        main(
            ["distributed", "--elastic", "--checkpoint", "--reshard", "locality"]
        )
        == 2
    )
    assert "--checkpoint" in capsys.readouterr().err


def test_cli_checkpoint_rejects_unknown_restore():
    with pytest.raises(SystemExit):
        main(["distributed", "--elastic", "--checkpoint", "--restore", "dvd"])


def test_cli_distributed_overlap_matrix(capsys):
    """`python -m repro distributed --fabric hierarchical --overlap` (the
    acceptance command) runs the {flat, hierarchical} x {serial, overlap}
    matrix on the ring fabric and its checks pass -- including the strict
    exposed-sync win of hierarchical+overlap over flat+serial."""
    assert (
        main(
            [
                "distributed",
                "--fabric",
                "hierarchical",
                "--overlap",
                "--scale",
                "0.02",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "distributed_overlap" in out
    assert "hierarchical" in out
    assert "exposed" in out
    assert "MISS" not in out


def test_cli_distributed_overlap_buckets_flag(capsys):
    assert main(["distributed", "--overlap", "--buckets", "2", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "distributed_overlap" in out


def test_cli_overlap_flags_reject_elastic(capsys):
    assert main(["distributed", "--elastic", "--overlap"]) == 2
    err = capsys.readouterr().err
    assert "--elastic" in err


def test_cli_rejects_non_positive_buckets(capsys):
    assert main(["distributed", "--overlap", "--buckets", "0"]) == 2
    err = capsys.readouterr().err
    assert "--buckets" in err


def test_cli_rejects_unknown_fabric_topology():
    with pytest.raises(SystemExit):
        main(["distributed", "--fabric", "torus"])


def test_cli_reshard_requires_elastic(capsys):
    assert main(["distributed", "--reshard", "locality"]) == 2
    err = capsys.readouterr().err
    assert "--elastic" in err


def test_cli_reshard_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        main(["distributed", "--elastic", "--reshard", "zigzag"])


def test_cli_distributed_elastic_saves_report(tmp_path, capsys):
    assert (
        main(
            [
                "distributed",
                "--elastic",
                "--scale",
                "0.05",
                "--output",
                str(tmp_path),
            ]
        )
        == 0
    )
    assert os.path.exists(tmp_path / "distributed_elastic.txt")


def test_cli_bench_profile_handles_a_job_mix(monkeypatch, capsys):
    """``--profile`` on a multi-tenant row: a MixResult has no
    ``collapsed_collectives`` of its own, the bench's helper sums the jobs'."""
    name = "mix-two-job-64"
    small = dataclasses.replace(
        bench.scenario_by_name(name), nodes=2, gpus_per_node=2, steps_per_gpu=2
    )
    assert small.jobs == 2
    monkeypatch.setattr(bench, "SCENARIOS", (small,))
    assert main(["bench", "--profile", "--scenario", name, "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert f"== {name}:" in out and "0 collapsed collectives" in out


def test_cli_bench_census_counts_every_delivered_event(monkeypatch, capsys):
    """``--census``: delivered events by (event type, waiting generator
    ``name:line``) with shares; the counts add up to the run's event total,
    and the counting kernel is gone again afterwards."""
    from repro.sim import cluster as cluster_module
    from repro.sim.kernel import Environment

    name = "flat-serial-static-64"
    small = dataclasses.replace(
        bench.scenario_by_name(name), nodes=2, gpus_per_node=2, steps_per_gpu=2
    )
    monkeypatch.setattr(bench, "SCENARIOS", (small,))
    counts = bench.census(small)
    result, _wall = small.run(collapse=True)
    assert sum(counts.values()) == result.sim_events
    assert cluster_module.Environment is Environment
    kinds = {kind for kind, _waiter in counts}
    assert {"Timeout", "StorePut", "_Initialize"} <= kinds
    assert any(waiter.startswith("_occupy:") for _kind, waiter in counts)
    # the Minato stages are callback chains: a stage transition is named by
    # its bound method, and no stage is a generator process
    assert ("Timeout", "_Hold._ended") in counts
    assert ("StoreGet", "_Builder._took") in counts
    assert not any(
        waiter.startswith(("_slow_worker", "_loading_worker", "_builder"))
        for _kind, waiter in counts
    )
    # nobody is woken 100 times a second any more
    assert not any(
        kind == "Timeout" and waiter.startswith(("_SlowWorker", "_Builder"))
        for kind, waiter in counts
    )
    assert main(["bench", "--census", "--scenario", name, "--top", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"== {name}"
    assert out[1].split() == [str(result.sim_events), "100.0", "%", "delivered", "events"]
    assert len(out) == 2 + 5 + 1 and out[-1].endswith("(other)")


def test_cli_output_cut_short_by_a_closed_pipe_ends_without_a_traceback():
    """``repro bench --census ... | head``: the reader has gone away before
    the output is written.  The command exits 1, quietly -- no
    ``BrokenPipeError`` traceback, no 'Exception ignored' at exit."""
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--list"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert b"BrokenPipe" not in proc.stderr and b"Traceback" not in proc.stderr


def test_cli_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_cli_run_with_output_dir(tmp_path, capsys):
    assert main(["run", "fig1b", "--scale", "0.02", "--output", str(tmp_path)]) == 0
    assert os.path.exists(tmp_path / "fig1b.txt")


def test_report_generator_subset(tmp_path):
    import io

    from repro.experiments import report as report_module

    content = report_module.generate(
        scale=0.02, experiment_ids=["fig2"], stream=io.StringIO()
    )
    assert "## fig2:" in content
    assert "Shape checks" in content
    out = tmp_path / "E.md"
    argv = ["report", "--scale", "0.02", "--only", "fig2", "--output", str(out)]
    assert main(argv) == 0
    assert "## fig2:" in out.read_text()
    assert "## fig1b:" not in out.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "fig1b", "--scale", "5"],
        ["run", "scenarios", "--scale", "5"],
        ["run", "scenarios", "--scale", "-1"],
        ["run", "table2", "--scale", "0"],
        ["run", "all", "--scale", "5"],
        ["report", "--scale", "5"],
    ],
)
def test_cli_refuses_a_scale_outside_the_unit_interval(argv, tmp_path, capsys):
    """One scale rule: an explicit scale outside (0, 1] is refused before
    any experiment runs, for every experiment and for the report (which
    then writes no file)."""
    out = tmp_path / "E.md"
    if argv[0] == "report":
        argv = argv + ["--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "(0, 1]" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("module", ["fig1b", "scenarios"])
@pytest.mark.parametrize("scale", [5, -1, 0])
def test_runner_refuses_a_scale_outside_the_unit_interval(module, scale):
    import importlib

    from repro.errors import ConfigurationError

    run = importlib.import_module(f"repro.experiments.{module}").run
    with pytest.raises(ConfigurationError, match=r"\(0, 1\]"):
        run(scale=scale)


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])
