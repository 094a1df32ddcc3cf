"""Figure 4: tuning prefetch parameters does not fix preprocessing stalls.

(a) PyTorch ``prefetch_factor`` sweeps and (b) DALI ``prefetch_queue_depth``
sweeps across three workloads.  Paper takeaway 4: neither mechanism reduces
the per-sample transformation cost, so increasing them yields little.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import render_table
from ..sim.runner import run_simulation
from ..sim.workloads import CONFIG_A, make_workload
from .common import ExperimentReport, experiment

#: paper Fig. 4a x-axes per workload
PYTORCH_SWEEPS: Dict[str, List[int]] = {
    "image_segmentation": [2, 8, 24],
    "speech_3s": [2, 8, 32, 48],
    "object_detection": [2, 8, 24, 32],
}
#: paper Fig. 4b x-axes per workload
DALI_SWEEPS: Dict[str, List[int]] = {
    "image_segmentation": [2, 8, 16],
    "speech_10s": [2, 8, 16, 24],
    "object_detection": [2, 8, 16, 24],
}

#: loader -> (its prefetch knob, the x-axes, the names the table and the
#: checks give the loader, the sweep and the knob)
_SWEEPS = {
    "pytorch": (
        "prefetch_factor", PYTORCH_SWEEPS, "PyTorch", "prefetch", "prefetch_factor"
    ),
    "dali": ("prefetch_queue_depth", DALI_SWEEPS, "DALI", "queue-depth", "depth"),
}


@experiment("fig4", "Impact of prefetch parameters on training time (Fig. 4)")
def run(report: ExperimentReport, num_gpus: int = 4) -> None:
    sections = []
    for loader, (knob, sweeps, name, sweep_name, knob_name) in _SWEEPS.items():
        report.data[loader] = {}
        for workload_name, values in sweeps.items():
            workload = make_workload(workload_name).scaled(report.scale)
            times = [
                (
                    value,
                    run_simulation(
                        loader,
                        workload,
                        CONFIG_A,
                        num_gpus,
                        loader_kwargs={knob: value},
                    ).training_time,
                )
                for value in values
            ]
            report.data[loader][workload_name] = times
            sections.append(
                render_table(
                    [knob, "training time (s)"],
                    [(v, f"{t:.1f}") for v, t in times],
                    title=f"{name} {knob} sweep - {workload_name}:",
                )
            )
            base = times[0][1]
            best = min(t for _v, t in times)
            improvement = (base - best) / base
            report.check(
                f"{name} {sweep_name} sweep yields <10% improvement "
                f"({workload_name})",
                improvement < 0.10,
                f"best improvement {improvement:.1%} over "
                f"{knob_name}={times[0][0]}",
            )
    report.body = "\n\n".join(sections)
