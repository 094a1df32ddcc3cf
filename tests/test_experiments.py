"""Smoke tests for the experiment runners.

Full-fidelity runs (with all shape checks enforced) live in ``benchmarks/``;
these tests exercise every runner at a small scale and validate report
structure, determinism and the claim-checking machinery itself.
"""

import os

import pytest

from repro.experiments import REGISTRY, Check, ExperimentReport, default_scale
from repro.experiments import fig1b, fig2, fig10, fig12, table2, artifact_e1, fig11bc

SMALL = 0.03


def test_registry_covers_every_paper_artifact():
    assert set(REGISTRY) == {
        "table2",
        "fig1b",
        "fig2",
        "fig3",
        "fig4",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11a",
        "fig11bc",
        "fig12",
        "artifact_e1",
        "ablations",
        "distributed",
        "distributed_elastic",
        "distributed_overlap",
        "distributed_checkpoint",
        "scenarios",
    }


def test_report_render_and_save(tmp_path):
    report = ExperimentReport(experiment_id="x", title="T", body="B")
    report.check("always", True, "d")
    report.check("never", False)
    out = report.render()
    assert "[PASS] always" in out
    assert "[MISS] never" in out
    assert not report.all_passed
    assert report.passed_count == 1
    path = report.save(str(tmp_path))
    assert os.path.exists(path)


def test_check_render():
    assert "PASS" in Check("c", True).render()
    assert "MISS" in Check("c", False, "why").render()


def test_default_scale_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert default_scale() == pytest.approx(0.1)
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert default_scale() == pytest.approx(0.5)
    monkeypatch.setenv("REPRO_SCALE", "7")  # clamped
    assert default_scale() == 1.0
    monkeypatch.setenv("REPRO_SCALE", "junk")
    assert default_scale() == pytest.approx(0.1)


def test_runners_keep_their_signatures():
    """The runner builds the report; the public entry points keep the
    parameters callers pass (scale first, where the experiment scales)."""
    import inspect

    from repro.experiments import distributed, fig7, fig11a

    def params(run):
        return list(inspect.signature(run).parameters)

    assert params(fig7.run) == ["scale", "num_gpus"]
    assert params(fig12.run) == ["scale", "proportions", "num_gpus"]
    assert params(distributed.run_elastic_experiment) == [
        "scale", "nodes", "gpus_per_node", "reshard"
    ]
    assert params(table2.run) == ["dataset_size"]
    assert params(fig2.run) == ["n_samples", "seed"]
    assert fig12.run(SMALL, (0.0,)).data["results"].keys() == {0.0}
    assert params(fig11a.collect_orderings)[:5] == [
        "loader_kind", "dataset", "pipeline", "batch_size", "epochs"
    ]


def test_table2_full_fidelity():
    """Table 2 is cheap enough to check fully in the unit suite."""
    report = table2.run()
    assert report.all_passed, report.render()


def test_fig2_full_fidelity():
    report = fig2.run()
    assert report.all_passed, report.render()


def test_fig1b_small_scale_structure():
    report = fig1b.run(scale=SMALL)
    assert report.data["gpu_series"]
    assert report.data["cpu_series"]
    assert 0 <= report.data["gpu_avg"] <= 100


def test_fig10_small_scale_mechanics():
    report = fig10.run(scale=SMALL)
    results = report.data["results"]
    # the §5.5 mechanics hold even in short runs
    assert all(r.cache_hit_rate < 0.2 for r in results.values())
    assert results["minato"].training_time < results["pytorch"].training_time


def test_fig12_two_point_sweep():
    report = fig12.run(scale=SMALL, proportions=(0.0, 0.5))
    results = report.data["results"]
    assert set(results) == {0.0, 0.5}
    mid_ratio = (
        results[0.5]["pytorch"].training_time
        / results[0.5]["minato"].training_time
    )
    edge_ratio = (
        results[0.0]["pytorch"].training_time
        / results[0.0]["minato"].training_time
    )
    assert mid_ratio > edge_ratio  # variability is where Minato wins


def test_artifact_e1_small_scale_ordering():
    report = artifact_e1.run(scale=SMALL)
    results = report.data["results"]
    assert results["minato"].training_time < results["pytorch"].training_time


def test_fig11bc_small_scale_composition():
    report = fig11bc.run(scale=SMALL)
    for task in ("object_detection", "image_segmentation"):
        dist = report.data[task]["minato_dist"]
        assert abs(sum(dist) - 1.0) < 1e-9


def test_experiment_runs_are_deterministic():
    a = fig1b.run(scale=SMALL)
    b = fig1b.run(scale=SMALL)
    assert a.data["gpu_avg"] == b.data["gpu_avg"]
    assert a.data["cpu_avg"] == b.data["cpu_avg"]
