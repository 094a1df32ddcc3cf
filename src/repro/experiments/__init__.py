"""One experiment per paper table/figure, on one runner.

Each module holds one experiment's paper claims; :mod:`.common` is the
runner they share.  Its :data:`REGISTRY` maps experiment ids to their
runners so benchmarks and the report generator can enumerate everything:

    from repro.experiments import REGISTRY
    report = REGISTRY["fig7"]()
    print(report.render())
"""

# Importing a module registers its experiments, so this order is the
# registry's.  The first block regenerates the paper's tables/figures; the
# second holds extensions beyond the paper.
from . import (
    table2,
    fig1b,
    fig2,
    fig3,
    fig4,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11a,
    fig11bc,
    fig12,
    artifact_e1,
    # extensions beyond the paper (§6 discussion, DESIGN.md ablations)
    ablations,
    distributed,
    checkpoint,
    scenarios,
)
from .common import REGISTRY, Check, ExperimentReport, default_scale, run_experiments

__all__ = [
    "REGISTRY",
    "ExperimentReport",
    "Check",
    "default_scale",
    "run_experiments",
]
