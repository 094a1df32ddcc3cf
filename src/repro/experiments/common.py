"""The runner every paper experiment shares.

An experiment module keeps its paper docstring, its parameters and its
*shape checks*: the paper's claims evaluated against the measured numbers
(who wins, by roughly what factor, where crossovers sit).  The runner owns
the rest: :func:`experiment` registers a module's body and builds its
report at a validated scale, :func:`run_experiments` runs a list of ids for
``repro run`` and ``repro report``, and :func:`sweep` / :func:`results_table`
are the grid of simulations and the results table most figures are made of.

Run length scales with ``scale`` in (0, 1] (1.0 = the paper's full Table 3
configs).  The default comes from the ``REPRO_SCALE`` environment variable so
benchmark machines can dial fidelity against wall-clock budget.
"""

from __future__ import annotations

import functools
import inspect
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from ..analysis import render_table
from ..errors import ConfigurationError
from ..sim.runner import LOADER_NAMES, SimResult, run_simulation
from ..sim.workloads import CONFIG_A, HardwareConfig, WorkloadSpec

_DEFAULT_SCALE = 0.1

#: experiment id -> runner, in the order the package imports its modules
REGISTRY: Dict[str, Callable[..., "ExperimentReport"]] = {}


def default_scale() -> float:
    """Run-length scale factor (``REPRO_SCALE`` env var, default 0.1)."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return _DEFAULT_SCALE
    try:
        value = float(raw)
    except ValueError:
        return _DEFAULT_SCALE
    return min(max(value, 0.001), 1.0)


def resolve_scale(scale: Optional[float]) -> float:
    """``scale``, or :func:`default_scale` when it is None.  A scale outside
    (0, 1] is a :class:`ConfigurationError`: 1.0 is the paper's full run."""
    if scale is None:
        return default_scale()
    if not 0 < scale <= 1:
        raise ConfigurationError(f"scale must be in (0, 1], got {scale:g}")
    return scale


@dataclass
class Check:
    """One paper claim evaluated against measured data."""

    claim: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "MISS"
        out = f"  [{mark}] {self.claim}"
        if self.detail:
            out += f"  ({self.detail})"
        return out


@dataclass
class ExperimentReport:
    """Output of one experiment runner."""

    experiment_id: str
    title: str
    body: str = ""
    checks: List[Check] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)
    scale: float = 1.0

    def check(self, claim: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(claim=claim, passed=passed, detail=detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    def render(self) -> str:
        lines = [
            f"=== {self.experiment_id}: {self.title} (scale={self.scale:g}) ===",
            self.body,
            "",
            f"Shape checks ({self.passed_count}/{len(self.checks)} hold):",
        ]
        lines.extend(c.render() for c in self.checks)
        return "\n".join(lines)

    def save(self, output_dir: str) -> str:
        os.makedirs(output_dir, exist_ok=True)
        path = os.path.join(output_dir, f"{self.experiment_id}.txt")
        with open(path, "w") as fh:
            fh.write(self.render() + "\n")
        return path


def experiment(experiment_id: str, title: str, scaled: bool = True):
    """Register ``body(report, **params)`` as experiment ``experiment_id``
    and return its public runner, ``run(scale=None, **params)``, which
    builds the report at the resolved scale, lets the body fill it and
    returns it.  An unscaled experiment reads fixed inputs: its runner is
    ``run(**params)`` and its report says scale 1."""

    def register(body: Callable[..., None]) -> Callable[..., ExperimentReport]:
        params = list(inspect.signature(body).parameters.values())[1:]
        if scaled:
            scale = inspect.Parameter(
                "scale",
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                default=None,
                annotation=Optional[float],
            )
            params.insert(0, scale)
        signature = inspect.Signature(params, return_annotation=ExperimentReport)

        @functools.wraps(body)
        def run(*args, **kwargs) -> ExperimentReport:
            arguments = signature.bind(*args, **kwargs).arguments
            report = ExperimentReport(
                experiment_id=experiment_id,
                title=title,
                scale=resolve_scale(arguments.pop("scale", None)) if scaled else 1.0,
            )
            body(report, **arguments)
            return report

        run.__signature__ = signature  # type: ignore[attr-defined]
        run.scaled = scaled  # type: ignore[attr-defined]
        REGISTRY[experiment_id] = run
        return run

    return register


def run_experiments(
    ids: Sequence[str], scale: Optional[float] = None
) -> Iterator[ExperimentReport]:
    """Run the experiments ``ids`` in order, yielding each report.

    An unknown id or a scale outside (0, 1] raises
    :class:`ConfigurationError` here, before any experiment runs.  An
    experiment that reads fixed inputs (``scaled=False``) runs as it is.
    """
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s): {', '.join(unknown)}\n"
            f"available: {', '.join(REGISTRY)}"
        )
    resolve_scale(scale)
    runners = [REGISTRY[i] for i in ids]
    return (r(scale=scale) if r.scaled else r() for r in runners)


def sweep(
    workload: WorkloadSpec,
    loaders: Sequence[str] = LOADER_NAMES,
    hardware: HardwareConfig = CONFIG_A,
    num_gpus: int = 4,
    **options,
) -> Dict[str, SimResult]:
    """Simulate each of ``loaders`` on the same workload, hardware and GPU
    count; ``options`` go to :func:`run_simulation` as they are."""
    return {
        loader: run_simulation(loader, workload, hardware, num_gpus, **options)
        for loader in loaders
    }


def results_table(
    results: Mapping, columns: Mapping[str, Callable], title: str, *labels: str
) -> str:
    """One row per run in ``results``: its key under ``labels`` (default
    "loader"; a key under several labels is a tuple), then one cell per
    entry of ``columns``, which maps a header to the cell's formatter."""
    labels = labels or ("loader",)
    rows = [
        [
            *(key if len(labels) > 1 else (key,)),
            *(cell(result) for cell in columns.values()),
        ]
        for key, result in results.items()
    ]
    return render_table([*labels, *columns], rows, title=title)


def seconds(result: SimResult) -> str:
    return f"{result.training_time:.1f}"


def gpu_percent(result: SimResult) -> str:
    return f"{result.mean_gpu_utilization * 100:.1f}"


def cpu_percent(result: SimResult) -> str:
    return f"{result.cpu_utilization * 100:.1f}"


#: the columns a per-loader table of training runs starts with
USAGE_COLUMNS = {"time (s)": seconds, "GPU %": gpu_percent, "CPU %": cpu_percent}
