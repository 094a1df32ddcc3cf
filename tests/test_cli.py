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


@pytest.fixture(scope="module")
def elastic_cli(tmp_path_factory):
    """``repro run distributed_elastic --scale 0.05 --output DIR``, run
    once for the tests that read it: (exit status, stdout, DIR)."""
    import contextlib
    import io

    out_dir = tmp_path_factory.mktemp("elastic")
    stdout = io.StringIO()
    argv = ["run", "distributed_elastic", "--scale", "0.05", "--output", str(out_dir)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
        io.StringIO()
    ):
        status = main(argv)
    return status, stdout.getvalue(), out_dir


def test_cli_distributed_elastic(elastic_cli):
    """`python -m repro run distributed_elastic` runs the churn/failure
    membership scenarios end-to-end and its measured checks pass."""
    status, out, _out_dir = elastic_cli
    assert status == 0
    assert "distributed_elastic" in out
    assert "churn" in out
    assert "failure" in out
    assert "MISS" not in out


def test_cli_distributed_elastic_reshard_locality(elastic_cli):
    """The stride-vs-locality arm always runs both re-shard policies, and
    its checks (locality keeps more of the survivors' shards and pays less
    cache warmup) pass."""
    status, out, _out_dir = elastic_cli
    assert status == 0
    table = out[out.index("Re-shard policy under churn") :].splitlines()
    assert any(row.split()[:1] == ["stride"] for row in table)
    assert any(row.split()[:1] == ["locality"] for row in table)
    assert "MISS" not in out


def test_cli_distributed_elastic_saves_report(elastic_cli):
    _status, _out, out_dir = elastic_cli
    assert os.path.exists(out_dir / "distributed_elastic.txt")


def test_cli_distributed_elastic_checkpoint(capsys):
    """`python -m repro run distributed_checkpoint` runs the
    checkpoint-interval economics experiment and its tradeoff checks
    (middle interval strictly beats both extremes under the failure)
    pass."""
    assert main(["run", "distributed_checkpoint"]) == 0
    out = capsys.readouterr().out
    assert "distributed_checkpoint" in out
    assert "tradeoff cuts both ways" in out
    assert "MISS" not in out


def test_cli_distributed_overlap_matrix(capsys):
    """`python -m repro run distributed_overlap` runs the
    {flat, hierarchical} x {serial, overlap} matrix on the ring fabric and
    its checks pass -- including the strict exposed-sync win of
    hierarchical+overlap over flat+serial."""
    assert main(["run", "distributed_overlap", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "distributed_overlap" in out
    assert "hierarchical" in out
    assert "exposed" in out
    assert "MISS" not in out


#: the invocations of the old ``repro distributed`` door, by the name of
#: the test that ran each; every one is now an unknown command
_DISTRIBUTED_DOOR = {
    "bare": [],
    "checkpoint_featured_arm": [
        "--elastic", "--checkpoint", "--checkpoint-interval", "8", "--restore", "peer"
    ],
    "checkpoint_requires_elastic": ["--checkpoint"],
    "checkpoint_flags_require_checkpoint": ["--elastic", "--checkpoint-interval", "4"],
    "checkpoint_rejects_non_positive_interval": [
        "--elastic", "--checkpoint", "--checkpoint-interval", "0"
    ],
    "checkpoint_rejects_reshard": [
        "--elastic", "--checkpoint", "--reshard", "locality"
    ],
    "checkpoint_rejects_unknown_restore": [
        "--elastic", "--checkpoint", "--restore", "dvd"
    ],
    "overlap_buckets_flag": ["--overlap", "--buckets", "2", "--scale", "0.02"],
    "overlap_flags_reject_elastic": ["--elastic", "--overlap"],
    "rejects_non_positive_buckets": ["--overlap", "--buckets", "0"],
    "rejects_unknown_fabric_topology": ["--fabric", "torus"],
    "reshard_requires_elastic": ["--reshard", "locality"],
    "reshard_rejects_unknown_policy": ["--elastic", "--reshard", "zigzag"],
}


@pytest.mark.parametrize("flags", _DISTRIBUTED_DOOR.values(), ids=_DISTRIBUTED_DOOR)
def test_cli_distributed_is_an_unknown_command(flags, capsys):
    """`repro distributed` and its flags are gone: each §6 experiment is
    `repro run <id>`, so the old door is refused by the parser (exit 2)
    before anything runs, whatever flags follow it."""
    with pytest.raises(SystemExit) as exited:
        main(["distributed", *flags])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'distributed'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("scale", ["0", "nan", "-1", "inf"])
def test_cli_scenarios_refuses_a_degenerate_scale(scale, capsys):
    """`repro scenarios --preset steady --scale 0` is refused, not run at
    scale 1.0; NaN is refused with one line, not a traceback."""
    assert main(["scenarios", "--preset", "steady", "--scale", scale]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "scale must be a real number > 0" in captured.err


def test_cli_scenarios_without_a_preset_names_repro_run(capsys):
    """The sweep over every preset is an experiment: `repro scenarios`
    with neither --preset nor --list points at `repro run scenarios`."""
    assert main(["scenarios"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repro run scenarios" in captured.err


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


def test_cli_help_keeps_each_usage_line_on_its_own_line(capsys):
    """``repro --help`` prints the docstring's usage lines as written, one
    command a line, not reflowed into one paragraph."""
    import repro.__main__

    usage = [
        line.strip()
        for line in repro.__main__.__doc__.splitlines()
        if line.strip().startswith("python -m repro ")
    ]
    assert len(usage) >= 5
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    printed = [line.strip() for line in capsys.readouterr().out.splitlines()]
    for line in usage:
        assert line in printed


def test_cli_run_refuses_a_bad_repro_scale(monkeypatch, capsys):
    """``REPRO_SCALE`` keeps ``--scale``'s rule: out of (0, 1] or not a
    number, ``repro run`` exits 2 with one line naming the variable."""
    for raw in ("7", "0", "junk", "nan"):
        monkeypatch.setenv("REPRO_SCALE", raw)
        assert main(["run", "table2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro run: REPRO_SCALE must be in (0, 1]")


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])
