"""Shared configuration for the benchmark harness.

Each benchmark regenerates one paper table/figure through its experiment
runner and asserts the paper's shape checks.  Run lengths follow the
``REPRO_SCALE`` environment variable (default 0.1 of the paper's Table 3
configs; set ``REPRO_SCALE=1.0`` for full-scale runs).

Benchmarks execute exactly one round: the measured quantity is the wall time
of regenerating the artifact, and experiment results are attached to
``benchmark.extra_info`` for inspection in the JSON output.
"""

import pytest


@pytest.fixture
def run_experiment(benchmark):
    """Run an experiment once under pytest-benchmark and check its shape."""

    def _run(runner):
        report = benchmark.pedantic(runner, rounds=1, iterations=1, warmup_rounds=0)
        benchmark.extra_info["experiment"] = report.experiment_id
        benchmark.extra_info["checks_passed"] = report.passed_count
        benchmark.extra_info["checks_total"] = len(report.checks)
        benchmark.extra_info["scale"] = report.scale
        failed = [c for c in report.checks if not c.passed]
        assert not failed, "failed shape checks:\n" + "\n".join(
            f"  {c.claim} ({c.detail})" for c in failed
        )
        return report

    return _run
