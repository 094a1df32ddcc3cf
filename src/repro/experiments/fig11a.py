"""Figure 11a: accuracy preservation and faster convergence (paper §5.6).

Real (small) numpy models are trained with the *actual batch orderings*
produced by the concurrent TorchStyleLoader and MinatoLoader over the
matching synthetic workloads:

* detection analog -- MLP classifier, held-out accuracy (stand-in for
  bbox mAP);
* segmentation analog -- per-pixel logistic segmenter, mean Dice (the
  paper's own metric).

Wall-clock per iteration comes from the paper-scale simulations, so the
curves can be reported both per-iteration (parity) and per-wall-second
(Minato converges faster).

This is the one experiment whose numbers vary from run to run.  The batch
orderings come from real threaded loader runs, and which worker thread
finishes a sample first is the operating system's choice, not the logical
clock's.  Two runs of ``repro run all`` can differ here and nowhere else:
at scale 0.02 one run read Minato's segmentation Dice as 0.960, the next
as 0.961.  Both passed every check; the parity checks allow 0.05 (final
metric) and 0.12 (any evaluation point) between the loaders.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..baselines import TorchLoaderConfig, TorchStyleLoader
from ..clock import ThreadLocalClock
from ..core import MinatoConfig, MinatoLoader
from ..data import SyntheticCOCO, SyntheticKiTS19
from ..engine.accuracy import (
    AccuracyCurve,
    MLPClassifier,
    PixelSegmenter,
    make_blob_images,
    make_cluster_data,
    train_with_ordering,
)
from ..sim.workloads import make_workload
from ..transforms import detection_pipeline, segmentation_pipeline
from .common import ExperimentReport, experiment, results_table, sweep


def collect_orderings(
    loader_kind: str,
    dataset,
    pipeline,
    batch_size: int,
    epochs: int,
    seed: int = 3,
) -> List[List[int]]:
    """Run a concurrent loader (logical clock) and record its batch orders."""
    if loader_kind == "minato":
        cfg = MinatoConfig(
            batch_size=batch_size,
            num_workers=6,
            warmup_samples=24,
            adaptive_workers=False,
            seed=seed,
        )
        loader = MinatoLoader(
            dataset, pipeline, cfg, epochs=epochs, clock=ThreadLocalClock()
        )
    elif loader_kind == "pytorch":
        cfg = TorchLoaderConfig(
            batch_size=batch_size,
            num_workers=6,
            pin_memory_bandwidth=None,
            seed=seed,
        )
        loader = TorchStyleLoader(
            dataset, pipeline, cfg, epochs=epochs, clock=ThreadLocalClock()
        )
    else:
        raise ValueError(f"unknown loader kind {loader_kind!r}")
    with loader:
        return [batch.indices for _epoch in range(epochs) for batch in loader]


def _classifier(n_samples: int) -> Tuple[Callable, Callable]:
    """Detection analog: an MLP on cluster data; (train a batch, score)."""
    x, y = make_cluster_data(n_samples, seed=11)
    x_test, y_test = make_cluster_data(512, seed=12)
    model = MLPClassifier(n_features=x.shape[1], n_classes=int(y.max()) + 1, seed=5)
    return (
        lambda idx: model.train_batch(x[idx], y[idx]),
        lambda: model.accuracy(x_test, y_test),
    )


def _segmenter(n_samples: int) -> Tuple[Callable, Callable]:
    """Segmentation analog: a per-pixel segmenter on blob images."""
    images, masks = make_blob_images(n_samples, seed=21)
    test_images, test_masks = make_blob_images(64, seed=22)
    model = PixelSegmenter(seed=5)
    return (
        lambda idx: model.train_batch(
            [images[i] for i in idx], [masks[i] for i in idx]
        ),
        lambda: model.mean_dice(test_images, test_masks),
    )


@experiment("fig11a", "Accuracy preservation with faster convergence (Fig. 11a)")
def run(report: ExperimentReport) -> None:
    scale = report.scale
    # task -> (the workload whose simulation times an iteration, the
    # dataset the threaded loaders order, its pipeline, batch size, epochs,
    # model, metric)
    tasks = {
        "detection": (
            "object_detection",
            SyntheticCOCO(n_samples=1200, payload_side=8),
            detection_pipeline,
            16,
            max(2, round(8 * scale * 10)),
            _classifier,
            "accuracy ~ bbox mAP",
        ),
        "segmentation": (
            "image_segmentation",
            SyntheticKiTS19(n_samples=210, payload_voxels=64),
            segmentation_pipeline,
            3,
            max(3, round(12 * scale * 10)),
            _segmenter,
            "mean Dice",
        ),
    }
    curves: Dict[str, Dict[str, AccuracyCurve]] = {}
    columns = {
        "final metric": lambda c: f"{c.final_metric:.3f}",
        "iterations": lambda c: len(c.iterations) and c.iterations[-1],
        "wall time (s)": lambda c: f"{c.total_wall_seconds:.1f}",
    }
    sections = []
    for task, (name, dataset, pipeline, batch_size, epochs, model, metric) in (
        tasks.items()
    ):
        # wall-clock per iteration from paper-scale sims (per-loader speed)
        workload = make_workload(name).scaled(max(scale, 0.02))
        sims = sweep(workload, ("pytorch", "minato"))
        curves[task] = {}
        for loader_kind, sim in sims.items():
            orderings = collect_orderings(
                loader_kind, dataset, pipeline(), batch_size, epochs
            )
            train, evaluate = model(len(dataset))
            curves[task][loader_kind] = train_with_ordering(
                loader_kind,
                orderings,
                lambda indices: train([i % len(dataset) for i in indices]),
                evaluate,
                eval_every=25,
                seconds_per_iteration=sim.training_time / max(sim.batches, 1),
            )
        sections.append(
            results_table(curves[task], columns, f"{task} (metric: {metric}):")
        )
    report.body = "\n\n".join(sections)
    report.data["curves"] = curves

    for task, per_loader in curves.items():
        torch_curve = per_loader["pytorch"]
        minato_curve = per_loader["minato"]
        gap = abs(torch_curve.final_metric - minato_curve.final_metric)
        report.check(
            f"{task}: final metric parity (paper: same accuracy)",
            gap <= 0.05,
            f"|{minato_curve.final_metric:.3f} - {torch_curve.final_metric:.3f}| "
            f"= {gap:.3f}",
        )
        # trend parity: metric curves close at every shared eval point
        n = min(len(torch_curve.metric), len(minato_curve.metric))
        diffs = [
            abs(a - b)
            for a, b in zip(torch_curve.metric[:n], minato_curve.metric[:n])
        ]
        report.check(
            f"{task}: convergence trend matches throughout training",
            max(diffs) <= 0.12 if diffs else False,
            f"max per-eval gap {max(diffs):.3f}" if diffs else "no evals",
        )
        report.check(
            f"{task}: Minato reaches the final metric in less wall time "
            "(paper: 60%+ faster)",
            minato_curve.total_wall_seconds < 0.8 * torch_curve.total_wall_seconds,
            f"{minato_curve.total_wall_seconds:.1f}s vs "
            f"{torch_curve.total_wall_seconds:.1f}s",
        )
