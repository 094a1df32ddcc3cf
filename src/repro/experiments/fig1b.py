"""Figure 1b: PyTorch DataLoader CPU/GPU usage trace on 3D-UNet.

The paper's motivating trace: CPU and GPU activity alternate (preprocessing
bursts while the GPU idles), with average GPU usage far below saturation.
"""

from __future__ import annotations

import numpy as np

from ..analysis import series_table
from ..sim.runner import run_simulation
from ..sim.workloads import CONFIG_A, make_workload
from .common import ExperimentReport, experiment


@experiment(
    "fig1b", "PyTorch DataLoader CPU/GPU trace during 3D-UNet training (Fig. 1b)"
)
def run(report: ExperimentReport, num_gpus: int = 4) -> None:
    workload = make_workload("image_segmentation").scaled(report.scale)
    result = run_simulation("pytorch", workload, CONFIG_A, num_gpus=num_gpus)

    gpu_avg = result.mean_gpu_utilization * 100
    cpu_avg = result.cpu_utilization * 100
    report.body = "\n".join(
        [
            f"training time: {result.training_time:.1f} s "
            f"({workload.epochs} epochs, {num_gpus}x A100)",
            series_table(result.cpu_series, f"CPU (avg {cpu_avg:.1f}%)", unit=""),
            series_table(result.gpu_series, f"GPU (avg {gpu_avg:.1f}%)", unit=""),
        ]
    )
    report.data["gpu_series"] = result.gpu_series
    report.data["cpu_series"] = result.cpu_series
    report.data["gpu_avg"] = gpu_avg
    report.data["cpu_avg"] = cpu_avg

    report.check(
        "GPU substantially under-utilized (paper: avg 57.4%)",
        35 <= gpu_avg <= 72,
        f"measured {gpu_avg:.1f}%",
    )
    report.check(
        "CPU usage low on the large machine (paper: avg 9.8%)",
        3 <= cpu_avg <= 18,
        f"measured {cpu_avg:.1f}%",
    )
    gpu_vals = np.array([v for _t, v in result.gpu_series])
    report.check(
        "GPU activity is bursty (idle gaps between training phases)",
        gpu_vals.size > 0 and gpu_vals.std() > 0.15,
        f"per-second std {gpu_vals.std():.2f}",
    )
