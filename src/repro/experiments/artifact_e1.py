"""Artifact Appendix experiments E1/E2: the paper's minimal reproduction.

3D-UNet (image segmentation) for 10 epochs on 8x V100 (Config B):

* E1 (training time): PyTorch ~210 s, DALI ~151 s, MinatoLoader ~81 s
  (2.6x over PyTorch, 1.9x over DALI);
* E2 (resource utilization): DALI high GPU (preprocessing on GPU), PyTorch
  frequent idle gaps with CPU peaks, MinatoLoader consistently high.
"""

from __future__ import annotations

from dataclasses import replace

from ..analysis import series_table
from ..sim.workloads import CONFIG_B, make_workload
from .common import (
    ExperimentReport,
    cpu_percent,
    experiment,
    gpu_percent,
    results_table,
    seconds,
    sweep,
)

PAPER_E1_SECONDS = {"pytorch": 210.0, "dali": 151.0, "minato": 81.0}
PAPER_EPOCHS = 10
NUM_GPUS = 8


@experiment("artifact_e1", "Artifact E1/E2: 3D-UNet on 8x V100, 10 epochs")
def run(report: ExperimentReport) -> None:
    effective_epochs = max(1, round(PAPER_EPOCHS * report.scale * 10))
    workload = replace(make_workload("image_segmentation"), epochs=effective_epochs)

    results = sweep(workload, ("pytorch", "dali", "minato"), CONFIG_B, NUM_GPUS)
    columns = {
        "time (s)": seconds,
        "paper (scaled)": lambda r: (
            f"{PAPER_E1_SECONDS[r.loader] * effective_epochs / PAPER_EPOCHS:.0f}"
        ),
        "GPU train %": gpu_percent,
        "GPU total %": lambda r: f"{sum(r.gpu_total_utilization) / NUM_GPUS * 100:.1f}",
        "CPU %": cpu_percent,
    }
    report.body = (
        results_table(
            results,
            columns,
            f"{effective_epochs} epochs, {NUM_GPUS}x V100 (paper runs 10):",
        )
        + "\n"
        + series_table(results["pytorch"].gpu_series, "pytorch GPU", "")
        + "\n"
        + series_table(results["minato"].gpu_series, "minato GPU", "")
    )
    report.data["results"] = results
    report.data["effective_epochs"] = effective_epochs

    report.check(
        "E1 ordering: Minato < DALI < PyTorch",
        results["minato"].training_time
        < results["dali"].training_time
        < results["pytorch"].training_time,
        ", ".join(f"{k}={v.training_time:.0f}s" for k, v in results.items()),
    )
    vs_torch = results["pytorch"].training_time / results["minato"].training_time
    vs_dali = results["dali"].training_time / results["minato"].training_time
    report.check(
        "E1 speedup vs PyTorch in band (paper: 2.6x)",
        1.3 <= vs_torch <= 3.5,
        f"measured {vs_torch:.2f}x",
    )
    report.check(
        "E1 speedup vs DALI in band (paper: 1.9x)",
        1.1 <= vs_dali <= 2.6,
        f"measured {vs_dali:.2f}x",
    )
    report.check(
        "E2: Minato GPU consistently high",
        results["minato"].mean_gpu_utilization >= 0.80,
        f"{results['minato'].mean_gpu_utilization * 100:.1f}%",
    )
    report.check(
        "E2: PyTorch shows idle periods (low train utilization)",
        results["pytorch"].mean_gpu_utilization <= 0.75,
        f"{results['pytorch'].mean_gpu_utilization * 100:.1f}%",
    )
    report.check(
        "E2: DALI raw GPU usage high (preprocessing on GPU)",
        sum(results["dali"].gpu_total_utilization) / NUM_GPUS >= 0.85,
        f"{sum(results['dali'].gpu_total_utilization) / NUM_GPUS * 100:.1f}%",
    )
