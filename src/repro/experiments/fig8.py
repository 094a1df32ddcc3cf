"""Figure 8: CPU and GPU usage for all systems across all workloads.

Paper §5.3 claims:

* PyTorch DataLoader averages 46.4% GPU utilization;
* MinatoLoader averages 90.45% while its GPU usage reflects *training only*;
* DALI reaches the highest raw GPU usage by preprocessing on the GPU;
* MinatoLoader's CPU usage is somewhat higher than PyTorch's (up to ~20%
  on the vision workloads).
"""

from __future__ import annotations

from ..analysis import series_table
from ..sim.workloads import WORKLOAD_NAMES, make_workload
from .common import (
    ExperimentReport,
    cpu_percent,
    experiment,
    gpu_percent,
    results_table,
    sweep,
)


@experiment("fig8", "CPU and GPU usage for all systems, 4x A100 (Fig. 8)")
def run(report: ExperimentReport, num_gpus: int = 4) -> None:
    results = {
        name: sweep(make_workload(name).scaled(report.scale), num_gpus=num_gpus)
        for name in WORKLOAD_NAMES
    }
    columns = {
        "GPU train %": gpu_percent,
        "GPU total %": lambda r: f"{sum(r.gpu_total_utilization) / num_gpus * 100:.1f}",
        "CPU %": cpu_percent,
    }
    sections = []
    for workload_name, per_loader in results.items():
        sections.append(
            results_table(per_loader, columns, f"{workload_name}:")
            + "\n"
            + series_table(per_loader["pytorch"].gpu_series, "pytorch GPU", "")
            + "\n"
            + series_table(per_loader["minato"].gpu_series, "minato GPU", "")
        )
    report.body = "\n\n".join(sections)
    report.data["results"] = results

    torch_avg, minato_avg = (
        sum(results[w][loader].mean_gpu_utilization for w in WORKLOAD_NAMES)
        / len(WORKLOAD_NAMES)
        for loader in ("pytorch", "minato")
    )
    report.check(
        "PyTorch averages poor GPU utilization (paper: 46.4%)",
        0.25 <= torch_avg <= 0.65,
        f"measured {torch_avg * 100:.1f}% across workloads",
    )
    report.check(
        "Minato raises average GPU utilization dramatically (paper: 90.45%)",
        minato_avg >= 0.70 and minato_avg >= torch_avg + 0.25,
        f"measured {minato_avg * 100:.1f}% across workloads",
    )
    for workload_name in WORKLOAD_NAMES:
        per_loader = results[workload_name]
        dali_total = sum(per_loader["dali"].gpu_total_utilization) / num_gpus
        report.check(
            f"{workload_name}: DALI shows near-saturated raw GPU usage "
            "(preprocessing included)",
            dali_total >= 0.85,
            f"measured {dali_total * 100:.1f}%",
        )
        report.check(
            f"{workload_name}: Minato GPU utilization above PyTorch's",
            per_loader["minato"].mean_gpu_utilization
            > per_loader["pytorch"].mean_gpu_utilization,
            f"{per_loader['minato'].mean_gpu_utilization * 100:.1f}% vs "
            f"{per_loader['pytorch'].mean_gpu_utilization * 100:.1f}%",
        )
        report.check(
            f"{workload_name}: Minato uses more CPU than PyTorch "
            "(balancer + scheduler at work)",
            per_loader["minato"].cpu_utilization
            >= per_loader["pytorch"].cpu_utilization,
            f"{per_loader['minato'].cpu_utilization * 100:.1f}% vs "
            f"{per_loader['pytorch'].cpu_utilization * 100:.1f}%",
        )
    vision = ["image_segmentation", "object_detection"]
    minato_vision_cpu = max(results[w]["minato"].cpu_utilization for w in vision)
    report.check(
        "Minato CPU usage moderate on vision workloads (paper: up to ~20%)",
        minato_vision_cpu <= 0.30,
        f"max {minato_vision_cpu * 100:.1f}%",
    )
