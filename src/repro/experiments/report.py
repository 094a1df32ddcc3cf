"""EXPERIMENTS.md generator: run every experiment and record paper-vs-measured.

Usage::

    repro report [--scale 0.2] [--output EXPERIMENTS.md] [--only fig7 fig8]
"""

from __future__ import annotations

import sys
import time
from typing import List, Optional

from .common import REGISTRY, ExperimentReport, run_experiments

_HEADER = """# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation, regenerated by this
repository's benchmark harness.  Hardware is simulated (see DESIGN.md for the
substitution table), so we validate *shapes* — who wins, by roughly what
factor, where crossovers sit — rather than absolute seconds.  Each experiment
encodes the paper's claims as machine-checked assertions ("shape checks").

Regenerate with:

    repro report --scale {scale}

`--scale` multiplies the paper's run lengths (Table 3); 1.0 reproduces the
full configurations.  The checks below were produced at scale {scale}.

## Calibration summary

* Per-sample preprocessing-cost distributions are calibrated to paper
  Table 2 and reproduce it within ~15% on every statistic (see `table2`).
* GPU step times (A100/V100 per model) were fitted once so the PyTorch
  DataLoader baseline lands near the paper's utilization numbers
  (Fig. 1b: 57.4% GPU / 9.8% CPU -> measured ~53%/7%), then held fixed for
  every loader and experiment.
* Known deviation: the simulator's CPU pool scales perfectly linearly with
  cores, so MinatoLoader's speed-ups on the speech microbenchmarks can
  exceed the paper's reported maxima (e.g. ~9x vs the paper's 7.5x on
  Speech-10s).  The orderings and crossovers match; the acceptance bands in
  `fig7`/`fig9` encode this explicitly.
* The paper's "single-GPU Minato beats 4-GPU baselines" claim is validated
  on the preprocessing-bound speech workloads; for GPU-bound workloads a
  single-GPU Minato is already training-bound in our calibration, where the
  claim is mechanically unreachable (checked as such in `fig9`).
* `fig11a` is the one experiment whose numbers vary from run to run: its
  batch orderings come from real threaded loader runs, whose interleaving
  the operating system decides.  The differences seen so far are in the
  third decimal, far inside the parity checks' tolerances.

## Experiment index

| id | paper artifact | checks |
|---|---|---|
{index_rows}

---
"""


def generate(
    scale: Optional[float] = None,
    experiment_ids: Optional[List[str]] = None,
    stream=None,
) -> str:
    """Run experiments and return the EXPERIMENTS.md contents."""
    stream = stream if stream is not None else sys.stderr
    ids = experiment_ids if experiment_ids is not None else list(REGISTRY)
    reports: List[ExperimentReport] = []
    started = time.time()
    for report in run_experiments(ids, scale):
        print(
            f"{report.experiment_id}: {report.passed_count}/"
            f"{len(report.checks)} checks, {time.time() - started:.1f}s",
            file=stream,
            flush=True,
        )
        reports.append(report)
        started = time.time()

    index_rows = "\n".join(
        f"| {r.experiment_id} | {r.title} | {r.passed_count}/{len(r.checks)} |"
        for r in reports
    )
    used_scale = next((r.scale for r in reports if r.scale != 1.0), scale or 1.0)
    parts = [_HEADER.format(scale=f"{used_scale:g}", index_rows=index_rows)]
    for report in reports:
        parts += [
            f"## {report.experiment_id}: {report.title}\n",
            "```text",
            report.body,
            "",
            f"Shape checks ({report.passed_count}/{len(report.checks)} hold):",
            *(c.render() for c in report.checks),
            "```",
            "",
        ]
    return "\n".join(parts)
