"""Figure 7: model throughput (MB/s) of all loaders on all workloads.

Four loaders x four workloads on Config A (4x A100).  The paper's headline
throughput claims (§5.2):

* image segmentation: Minato ~2.5x PyTorch, ~1.3x DALI;
* object detection:   Minato up to 2x PyTorch/Pecan, 1.6x DALI;
* speech:             Minato 3.5-5.5x PyTorch/Pecan, ~2x DALI.
"""

from __future__ import annotations

from ..analysis import series_table
from ..sim.runner import LOADER_NAMES, MB
from ..sim.workloads import WORKLOAD_NAMES, make_workload
from .common import ExperimentReport, experiment, results_table, seconds, sweep

#: (vs_pytorch_band, vs_dali_band) acceptance ranges per workload.  Bands are
#: generous around the paper's reported factors: the simulator's CPU pool
#: scales perfectly linearly, which slightly inflates Minato's headroom on
#: the speech microbenchmarks (see EXPERIMENTS.md).
THROUGHPUT_RATIO_BANDS = {
    "image_segmentation": ((1.4, 3.5), (1.1, 2.0)),
    "object_detection": ((1.4, 3.0), (1.1, 2.4)),
    "speech_3s": ((3.0, 8.0), (1.5, 3.5)),
    "speech_10s": ((3.0, 12.0), (1.5, 4.0)),
}


@experiment("fig7", "Throughput (MB/s) of all data loaders, 4x A100 (Fig. 7)")
def run(report: ExperimentReport) -> None:
    results = {
        name: sweep(make_workload(name).scaled(report.scale))
        for name in WORKLOAD_NAMES
    }
    columns = {
        "avg throughput (MB/s)": lambda r: f"{r.throughput_mb_per_s:.1f}",
        "training time (s)": seconds,
    }
    sections = []
    for workload_name, per_loader in results.items():
        series_lines = "\n".join(
            series_table(
                [(t, v / MB) for t, v in per_loader[loader].throughput_series],
                f"{loader} MB/s",
                "",
            )
            for loader in LOADER_NAMES
        )
        sections.append(
            results_table(per_loader, columns, f"{workload_name}:")
            + "\n"
            + series_lines
        )
    report.body = "\n\n".join(sections)
    report.data["results"] = results

    for workload_name, per_loader in results.items():
        minato = per_loader["minato"].throughput_mb_per_s
        report.check(
            f"{workload_name}: Minato achieves the highest throughput",
            all(
                minato >= per_loader[other].throughput_mb_per_s
                for other in LOADER_NAMES
                if other != "minato"
            ),
            f"minato {minato:.1f} MB/s",
        )
        torch_band, dali_band = THROUGHPUT_RATIO_BANDS[workload_name]
        vs_torch = minato / max(per_loader["pytorch"].throughput_mb_per_s, 1e-9)
        vs_dali = minato / max(per_loader["dali"].throughput_mb_per_s, 1e-9)
        report.check(
            f"{workload_name}: Minato/PyTorch throughput ratio in "
            f"[{torch_band[0]}, {torch_band[1]}] (paper band)",
            torch_band[0] <= vs_torch <= torch_band[1],
            f"measured {vs_torch:.2f}x",
        )
        report.check(
            f"{workload_name}: Minato/DALI throughput ratio in "
            f"[{dali_band[0]}, {dali_band[1]}] (paper band)",
            dali_band[0] <= vs_dali <= dali_band[1],
            f"measured {vs_dali:.2f}x",
        )
        pecan = per_loader["pecan"].throughput_mb_per_s
        torch = per_loader["pytorch"].throughput_mb_per_s
        report.check(
            f"{workload_name}: Pecan performs like PyTorch (single-node)",
            abs(pecan - torch) <= 0.2 * torch,
            f"pecan {pecan:.1f} vs pytorch {torch:.1f} MB/s",
        )
