"""Figure 2: per-sample preprocessing-time variability.

25 randomly selected samples from the image-segmentation and object-
detection workloads, with their individual preprocessing times against the
dataset average -- the motivating observation of paper §3.1.
"""

from __future__ import annotations

import numpy as np

from ..analysis import per_sample_costs, render_table
from ..sim.workloads import make_workload
from .common import ExperimentReport, experiment


@experiment(
    "fig2", "Per-sample preprocessing time variability (Fig. 2)", scaled=False
)
def run(report: ExperimentReport, n_samples: int = 25, seed: int = 7) -> None:
    sections = []
    for name, unit, factor in (
        ("image_segmentation", "s", 1.0),
        ("object_detection", "ms", 1000.0),
    ):
        workload = make_workload(name)
        costs = per_sample_costs(workload.dataset, workload.pipeline)
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(costs), size=n_samples, replace=False)
        sampled = costs[picks] * factor
        average = costs.mean() * factor
        rows = [(i, f"{value:.2f}") for i, value in enumerate(sampled)]
        sections.append(
            render_table(
                ["Sample index", f"Total time ({unit})"],
                rows,
                title=f"{name}: 25 random samples (dataset avg {average:.2f} {unit})",
            )
        )
        report.data[name] = {
            "sampled": sampled.tolist(),
            "average": float(average),
            "all_costs": (costs * factor).tolist(),
        }
        spread = sampled.max() / max(sampled.min(), 1e-9)
        report.check(
            f"{name}: wide spread across identically-transformed samples",
            spread > 3.0,
            f"max/min = {spread:.1f}x over 25 samples",
        )
    report.body = "\n\n".join(sections)

    seg = np.array(report.data["image_segmentation"]["all_costs"])
    det = np.array(report.data["object_detection"]["all_costs"])
    report.check(
        "image segmentation spans ~0.01-2.5 s (paper: 10 ms to 2.5 s)",
        seg.min() < 0.05 and seg.max() > 1.2,
        f"range {seg.min():.3f}-{seg.max():.2f} s",
    )
    report.check(
        "object detection spans ~10-200 ms (paper: 10 ms to 200 ms)",
        det.min() < 25 and det.max() > 120,
        f"range {det.min():.0f}-{det.max():.0f} ms",
    )
