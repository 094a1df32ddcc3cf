"""Benchmark: regenerate paper Fig. 12 (training time vs % slow samples)."""

from repro.experiments import fig12


def test_fig12(run_experiment):
    report = run_experiment(fig12.run)
    assert set(report.data["results"]) == set(fig12.PROPORTIONS)
