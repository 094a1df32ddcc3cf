"""Figure 12: training time across proportions of slow samples (paper §5.6).

The Speech-3s workload modified so HeavyStep applies to a configurable
fraction of the dataset (0%..100%).  Paper claims:

* at the edges (0% and 100%) all samples cost the same, so MinatoLoader
  performs like PyTorch/Pecan;
* in the 25-75% range MinatoLoader exploits the variability and wins by up
  to ~2.4x;
* DALI's GPU-discounted preprocessing makes it flat-ish across the sweep.

Setup note: this experiment isolates the load balancer, so the adaptive
worker scheduler is disabled and MinatoLoader runs the same 12 loading
workers as the PyTorch DataLoader, plus its background slow-task pool
(the paper's loading/slow/batch worker split, §4.3).
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..analysis import render_table
from ..sim.runner import LOADER_NAMES, SimResult, run_simulation
from ..sim.workloads import CONFIG_A, make_workload
from .common import ExperimentReport, experiment, sweep

DEFAULT_PROPORTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

_MINATO_KWARGS = {
    "workers_per_gpu": 12,
    "slow_workers": 20,
    "adaptive_workers": False,
}


@experiment("fig12", "Training time vs proportion of slow samples (Fig. 12)")
def run(
    report: ExperimentReport,
    proportions: Sequence[float] = DEFAULT_PROPORTIONS,
    num_gpus: int = 1,
) -> None:
    results: Dict[float, Dict[str, SimResult]] = {}
    for p in proportions:
        workload = make_workload("speech_3s", heavy_fraction=p).scaled(report.scale)
        results[p] = sweep(workload, ("pytorch", "pecan", "dali"), num_gpus=num_gpus)
        results[p]["minato"] = run_simulation(
            "minato", workload, CONFIG_A, num_gpus, loader_kwargs=_MINATO_KWARGS
        )
    rows = [
        [loader] + [f"{results[p][loader].training_time:.1f}" for p in proportions]
        for loader in LOADER_NAMES
    ]
    report.body = render_table(
        ["loader"] + [f"{p:.0%}" for p in proportions],
        rows,
        title=f"Training time (s) vs slow-sample proportion ({num_gpus}x A100):",
    )
    report.data["results"] = results

    def ratio(p: float) -> float:
        return (
            results[p]["pytorch"].training_time
            / results[p]["minato"].training_time
        )

    for p in (0.0, 1.0):
        if p in results:
            report.check(
                f"at {p:.0%} slow samples Minato ~ PyTorch (uniform costs)",
                ratio(p) <= 1.35,
                f"pytorch/minato = {ratio(p):.2f}x",
            )
    mid = [p for p in proportions if 0.2 <= p <= 0.8]
    edges = [p for p in (0.0, 1.0) if p in results]
    if mid:
        best_mid = max(ratio(p) for p in mid)
        report.check(
            "Minato wins in the intermediate range (paper: up to 2.4x)",
            best_mid >= 1.4,
            f"best pytorch/minato in 25-75% = {best_mid:.2f}x",
        )
        if edges:
            edge_best = max(ratio(p) for p in edges)
            report.check(
                "the mid-range advantage exceeds the edge advantage "
                "(variability is what Minato exploits)",
                best_mid > edge_best + 0.2,
                f"mid {best_mid:.2f}x vs edges {edge_best:.2f}x",
            )
    for p in proportions:
        per_loader = results[p]
        report.check(
            f"at {p:.0%}: Minato is never slower than the baselines",
            per_loader["minato"].training_time
            <= min(
                per_loader[o].training_time for o in LOADER_NAMES if o != "minato"
            )
            * 1.15,
            ", ".join(
                f"{k}={v.training_time:.0f}s" for k, v in per_loader.items()
            ),
        )
