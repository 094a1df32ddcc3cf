"""Smoke test of the benchmark harness, collected by the tier-1 command.

``run --quick`` (tiny sizes, one repetition) must emit exactly the workload
and metric names ``BENCHMARK.json`` lists, with units, pass its own
correctness checks, and repeat ``sim_digest`` between its two processes.
Records go to pytest's temporary directory; the work tree stays clean.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_manifest_is_well_formed():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(spec["workloads"]) <= 8 and len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_quick_run_emits_the_listed_metrics(tmp_path):
    spec = _spec()
    source = os.path.join(ROOT, "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=source + (os.pathsep + inherited if inherited else ""))
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--quick", "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=240,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    listed = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    for workload in (w["name"] for w in spec["workloads"]):
        assert f"== {workload}:" in done.stdout
        digests = set()
        for trace, expected in listed.items():
            with open(tmp_path / f"{workload}.trace{trace}.json") as handle:
                record = json.load(handle)
            emitted = [(name, m["unit"]) for name, m in record["metrics"].items()]
            assert emitted == expected
            assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())
            assert record["correct"] and record["ops_failed"] == 0 and record["ops_attempted"] > 0
            assert record["seed"] == 0
            digests.add(record["sim_digest"])
        # the simulated statistics repeat between two processes; thr-* have none
        assert len(digests) == 1
        assert (digests == {None}) == workload.startswith("thr-")
