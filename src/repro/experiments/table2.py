"""Table 2: per-workload preprocessing-time statistics.

Regenerates the paper's Table 2 from the synthetic datasets + calibrated
cost models and compares each statistic against the published values.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..analysis import per_sample_costs, preprocessing_stats, render_table
from ..sim.workloads import WORKLOAD_NAMES, make_workload
from .common import ExperimentReport, experiment

#: paper Table 2 rows: (avg, med, p75, p90, min, max, std) in milliseconds
PAPER_TABLE2: Dict[str, Tuple[float, ...]] = {
    "object_detection": (31, 28, 30, 35, 11, 176, 19),
    "image_segmentation": (500, 470, 630, 750, 10, 2230, 197),
    "speech_3s": (998, 508, 509, 3008, 502, 3017, 992),
    "speech_10s": (2351, 508, 509, 10008, 502, 10014, 3757),
}

#: acceptance bands (relative) per statistic; tails are inherently noisier
_TOLERANCES = {"avg": 0.15, "med": 0.15, "p75": 0.15, "p90": 0.15}


@experiment(
    "table2", "Preprocessing time statistics per workload (Table 2)", scaled=False
)
def run(report: ExperimentReport) -> None:
    rows = []
    measured = {}
    for name in WORKLOAD_NAMES:
        workload = make_workload(name)
        costs = per_sample_costs(workload.dataset, workload.pipeline)
        stats = preprocessing_stats(name, costs)
        measured[name] = stats
        rows.append(stats.row())
        paper = PAPER_TABLE2[name]
        rows.append(
            [
                f"  (paper)",
                f"{paper[0]:.0f}",
                f"{paper[1]:.0f}",
                f"{paper[2]:.0f}",
                f"{paper[3]:.0f}",
                f"{paper[4]:.0f}-{paper[5]:.0f}-{paper[6]:.0f}",
            ]
        )
    report.body = render_table(
        ["Workload", "Avg", "Med.", "P75", "P90", "Min-Max-Std"],
        rows,
        title="Preprocessing time (ms), measured vs paper:",
    )
    report.data["measured"] = measured

    for name in WORKLOAD_NAMES:
        paper = PAPER_TABLE2[name]
        stats = measured[name]
        values = {
            "avg": (stats.avg, paper[0]),
            "med": (stats.median, paper[1]),
            "p75": (stats.p75, paper[2]),
            "p90": (stats.p90, paper[3]),
        }
        for key, (got, want) in values.items():
            tol = _TOLERANCES[key]
            report.check(
                f"{name} {key} within {tol:.0%} of paper",
                abs(got - want) <= tol * want,
                f"measured {got:.0f} ms vs paper {want:.0f} ms",
            )
        # long tail present (max far above median)
        report.check(
            f"{name} has a long preprocessing tail",
            stats.maximum > 3 * stats.median,
            f"max {stats.maximum:.0f} ms vs median {stats.median:.0f} ms",
        )
