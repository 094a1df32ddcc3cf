"""Smoke tests for the experiment runners.

Full-fidelity runs (with all shape checks enforced) live in ``benchmarks/``;
these tests exercise every runner at a small scale and validate report
structure, determinism and the claim-checking machinery itself.
"""

import os

import pytest

from repro.experiments import REGISTRY, Check, ExperimentReport, default_scale
from repro.errors import ConfigurationError
from repro.experiments.common import resolve_scale
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
    """``REPRO_SCALE`` keeps ``--scale``'s rule: a number in (0, 1], or a
    refusal that names the variable -- never a clamp or a silent default."""
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert default_scale() == pytest.approx(0.1)
    monkeypatch.setenv("REPRO_SCALE", "")
    assert default_scale() == pytest.approx(0.1)
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert default_scale() == 0.5
    monkeypatch.setenv("REPRO_SCALE", "1")
    assert default_scale() == 1.0
    for raw in ("7", "0", "-0.5", "inf", "nan", "junk"):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ConfigurationError, match=r"^REPRO_SCALE must be in \(0, 1\]"):
            default_scale()
        with pytest.raises(ConfigurationError, match="^REPRO_SCALE"):
            resolve_scale(None)
    assert resolve_scale(0.5) == 0.5  # an explicit scale does not read it


def test_runners_keep_their_signatures():
    """An experiment is an id and a scale: every registered runner takes
    ``scale`` alone (or nothing, where it reads fixed inputs), and so does
    each ablation part."""
    import inspect

    from repro.experiments import ablations, fig11a

    unscaled = {"table2", "fig2"}
    for experiment_id, run in REGISTRY.items():
        signature = inspect.signature(run)
        if experiment_id in unscaled:
            assert not signature.parameters, experiment_id
        else:
            assert list(signature.parameters) == ["scale"], experiment_id
            assert signature.parameters["scale"].default is None
    for part in (
        ablations.run_timeout_percentile,
        ablations.run_adaptive_workers,
        ablations.run_slow_pool,
        ablations.run_preemption_grace,
    ):
        signature = inspect.signature(part)
        assert list(signature.parameters) == ["scale"], part.__name__
        assert signature.parameters["scale"].default is None
    assert {run.__name__ for run in REGISTRY.values()} == {
        "run", "run_elastic_experiment", "run_overlap_experiment"
    }
    assert list(inspect.signature(fig11a.collect_orderings).parameters)[:5] == [
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
    report = fig12.run(scale=SMALL)
    results = report.data["results"]
    assert set(results) == set(fig12.PROPORTIONS) >= {0.0, 0.5}
    mid_ratio = (
        results[0.5]["pytorch"].training_time
        / results[0.5]["minato"].training_time
    )
    edge_ratio = (
        results[0.0]["pytorch"].training_time
        / results[0.0]["minato"].training_time
    )
    assert mid_ratio > edge_ratio  # variability is where Minato wins


def test_artifact_e1_runs_the_scaled_epoch_count_at_full_scale(monkeypatch):
    """Scale 1.0 is a valid scale: artifact_e1 sets its epoch count on the
    workload directly (``round(10 * scale * 10)`` epochs, 100 at 1.0), not
    as a fraction of the workload's own 50 epochs, which cannot exceed 1."""

    class Captured(Exception):
        """The workload ``sweep`` received; nothing is simulated."""

    def sweep(workload, *args, **kwargs):
        raise Captured(workload)

    monkeypatch.setattr(artifact_e1, "sweep", sweep)
    for scale, epochs in ((1.0, 100), (0.1, 10), (SMALL, 3)):
        with pytest.raises(Captured) as captured:
            artifact_e1.run(scale=scale)
        assert captured.value.args[0].epochs == epochs


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
