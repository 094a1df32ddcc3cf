"""Figure 10: performance under memory constraints (paper §5.5).

A 230 GB dataset (KiTS19 replicated 8x) trained for 10 epochs on Config B
with the page cache capped at 80 GB (the paper uses cgroups), forcing all
loaders to stream from the NVMe SSD.  Paper results: PyTorch ~650 s at ~57%
GPU, DALI ~500 s at ~81%, MinatoLoader ~330 s at ~82% with stable,
near-peak disk reads.
"""

from __future__ import annotations

from ..analysis import series_table
from ..data.synthetic import ReplicatedDataset, SyntheticKiTS19
from ..engine.models import MODELS
from ..sim.workloads import CONFIG_B, WorkloadSpec
from ..transforms import segmentation_pipeline
from .common import USAGE_COLUMNS, ExperimentReport, experiment, results_table, sweep

GB = 1024**3


@experiment(
    "fig10",
    "Memory-constrained training: 230 GB dataset, 80 GB cache (Fig. 10)",
)
def run(
    report: ExperimentReport,
    replication_factor: int = 8,
    memory_limit_bytes: float = 80 * GB,
    num_gpus: int = 8,
) -> None:
    base = SyntheticKiTS19()
    dataset = ReplicatedDataset(base, factor=replication_factor)
    epochs = max(1, round(10 * report.scale))
    workload = WorkloadSpec(
        name="image_segmentation_230gb",
        dataset=dataset,
        pipeline=segmentation_pipeline(),
        model=MODELS["unet3d"],
        batch_size=3,
        epochs=epochs,
    )
    hardware = CONFIG_B.with_memory_limit(memory_limit_bytes)

    results = sweep(
        workload,
        ("pytorch", "dali", "minato"),
        hardware,
        num_gpus,
        cache_fraction=1.0,  # the limit itself is the cap
    )
    columns = {
        **USAGE_COLUMNS,
        "disk read (GB)": lambda r: f"{r.bytes_from_disk / GB:.0f}",
        "cache hit %": lambda r: f"{r.cache_hit_rate * 100:.1f}",
    }
    disk_lines = "\n".join(
        series_table(
            [(t, v / GB) for t, v in results[loader].disk_series],
            f"{loader} disk GB/s",
            "",
        )
        for loader in results
    )
    report.body = (
        results_table(
            results,
            columns,
            f"{epochs} epochs over {dataset.total_raw_nbytes() / GB:.0f} GB "
            f"dataset, {memory_limit_bytes / GB:.0f} GB cache, {num_gpus}x V100:",
        )
        + "\n\n"
        + disk_lines
    )
    report.data["results"] = results
    report.data["dataset_gb"] = dataset.total_raw_nbytes() / GB

    report.check(
        "dataset ~3x the memory limit (paper: 230 GB vs 80 GB)",
        2.0 <= dataset.total_raw_nbytes() / memory_limit_bytes <= 4.0,
        f"{dataset.total_raw_nbytes() / GB:.0f} GB vs {memory_limit_bytes / GB:.0f} GB",
    )
    report.check(
        "memory pressure defeats the page cache (constant disk streaming)",
        all(r.cache_hit_rate < 0.15 for r in results.values()),
        ", ".join(f"{k}={v.cache_hit_rate:.2f}" for k, v in results.items()),
    )
    report.check(
        "Minato fastest under memory pressure (paper: 330 vs 500 vs 650 s)",
        results["minato"].training_time
        < results["dali"].training_time
        < results["pytorch"].training_time,
        ", ".join(f"{k}={v.training_time:.0f}s" for k, v in results.items()),
    )
    ratio = results["pytorch"].training_time / results["minato"].training_time
    report.check(
        "Minato ~2x PyTorch under memory pressure (paper: 650/330 = 1.97x)",
        1.3 <= ratio <= 3.0,
        f"measured {ratio:.2f}x",
    )
    report.check(
        "Minato sustains high GPU utilization despite streaming "
        "(paper: 82.1% avg)",
        results["minato"].mean_gpu_utilization >= 0.70,
        f"measured {results['minato'].mean_gpu_utilization * 100:.1f}%",
    )
    # Disk stability: coefficient of variation of Minato's active-phase reads
    disk = [v for _t, v in results["minato"].disk_series if v > 0]
    if disk:
        mean = sum(disk) / len(disk)
        var = sum((v - mean) ** 2 for v in disk) / len(disk)
        cv = (var**0.5) / mean if mean > 0 else 1.0
        report.check(
            "Minato's disk reads are stable and high (paper: maximizing NVMe)",
            cv < 0.8 and mean > 0.3 * hardware.storage.bandwidth,
            f"mean {mean / GB:.2f} GB/s, CV {cv:.2f}",
        )
