"""Every numeric knob of every configuration and front door has a contract.

The registry below gives each constructor one valid base call.  Its numeric
parameters are found by introspection (an ``int`` / ``float`` annotation,
optional or not), never listed by hand, and each is probed with NaN, +-inf,
0, -1, 2.5 (integer knobs only) and 10**12.  A probe must raise
:class:`ConfigurationError` at construction unless its row's ``legal``
table admits it with a reason; a numeric parameter missing from that table
fails, which is how a new knob without a contract is caught.

Only refused probes are ever called, so a legal ``num_workers=10**12``
never reaches a thread spawn and a legal ``initial_nodes=10**12`` never
builds its node set.  The one run is the last test's: the smallest budget
a workload accepts delivers a batch.
"""

import inspect
import math
from dataclasses import replace
from typing import Callable, Dict, NamedTuple, Optional

import pytest

from repro.baselines import TorchLoaderConfig
from repro.clock import ScaledClock
from repro.core.config import MinatoConfig
from repro.core.profiler import TimeoutProfiler
from repro.core.scheduler import WorkerScheduler
from repro.data.samplers import (
    BatchSampler,
    RandomSampler,
    SequentialSampler,
    ShardedSampler,
)
from repro.data.storage import StorageSpec
from repro.data.synthetic import (
    ReplicatedDataset,
    SyntheticCOCO,
    SyntheticKiTS19,
    SyntheticLibriSpeech,
)
from repro.errors import ConfigurationError
from repro.experiments.common import resolve_scale
from repro.policy.routing import RoutingPolicy
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import (
    Cluster,
    ClusterMembership,
    MembershipEvent,
    PartitionEvent,
)
from repro.sim.distributed import AllReduceModel, JobSpec
from repro.sim.fabric import RingFabric
from repro.sim.kernel import Environment
from repro.sim.links import SharedLink
from repro.sim.loaders import SimDALILoader, SimMinatoLoader, SimTorchLoader
from repro.sim.resources import Resource
from repro.sim.runner import run_simulation
from repro.sim.scenarios import run_preset
from repro.sim.stores import Store
from repro.sim.topology import FlatRing, Hierarchical
from repro.sim.workloads import (
    CONFIG_A,
    HardwareConfig,
    WorkloadSpec,
    make_workload,
)

NAN, INF, BIG = math.nan, math.inf, 10**12
FLOAT_PROBES = (NAN, INF, -INF, 0, -1, BIG)
INT_PROBES = FLOAT_PROBES + (2.5,)
NUMERIC = {"int", "float", "Optional[int]", "Optional[float]"}

TINY = make_workload("speech_3s", dataset_size=48).scaled(0.02)

#: legality profiles: which probes a kind of contract admits, and why
COUNT = {BIG: "a count has no upper bound at construction"}
INDEX = {0: "the first one", **COUNT}
SEED = {0: "a seed is any integer >= 0", BIG: "a seed is any integer >= 0"}
AMOUNT = {
    0: "none of it is a valid amount (a free hop, no bytes, no delay)",
    BIG: "any finite amount",
}
RATE = {BIG: "any finite rate or duration > 0"}
SHARE = {0: "a share may be empty"}
EMPTY = {0: "an empty dataset", **COUNT}
REAL = {0: "any real number", -1: "any real number", BIG: "any real number"}
NONE = {}


class Row(NamedTuple):
    """One constructor: its numeric parameters' admitted probes, a valid
    base call, and per-parameter base swaps (a probe of ``time`` on an
    epoch-anchored event would clash with the anchor, not test ``time``)."""

    ctor: Callable
    legal: Dict[str, dict]
    base: dict = {}
    swaps: Dict[str, dict] = {}
    build: Optional[Callable] = None  # how to call it; default: ``ctor``


def in_env(ctor):
    return lambda **kw: ctor(Environment(), **kw)


SCHEDULER = {
    "alpha": REAL,
    "beta": REAL,
    "cpu_threshold": NONE,
    "delta_clip": COUNT,
    "min_workers": NONE,  # 10**12 exceeds the default max_workers
    "max_workers": COUNT,
}
MINATO = {
    **SCHEDULER,
    "slow_workers": COUNT,
    "queue_capacity": COUNT,
    "timeout_percentile": NONE,
    "fallback_percentile": NONE,
    "warmup_samples": COUNT,
    "timeout_override": {INF: "never: no sample is ever timed out", **RATE},
    "scheduler_interval": RATE,
    "poll_interval": RATE,
    "seed": SEED,
}
LINK = {"latency": AMOUNT, "bandwidth": RATE}

ROWS = [
    Row(MinatoConfig, {
        **MINATO,
        "batch_size": COUNT,
        "num_workers": COUNT,
        "num_gpus": COUNT,
        "batch_builders": COUNT,
        "max_slow_fraction": NONE,
        "load_retries": {0: "no retries: the first failure aborts", **COUNT},
    }),
    Row(TorchLoaderConfig, {
        "batch_size": COUNT,
        "num_workers": COUNT,
        "prefetch_factor": COUNT,
        "num_gpus": COUNT,
        "queue_capacity": COUNT,
        "pin_memory_bandwidth": RATE,
        "seed": SEED,
    }),
    Row(WorkerScheduler, SCHEDULER),
    Row(TimeoutProfiler, {
        "percentile": NONE,
        "fallback_percentile": NONE,
        "warmup_samples": COUNT,
        "window": COUNT,
        "max_slow_fraction": NONE,
        "override": {INF: "never: no sample is ever timed out", **RATE},
    }),
    Row(RoutingPolicy, {"grace_abs": AMOUNT, "grace_rel": AMOUNT}),
    Row(ScaledClock, {"scale": RATE}),
    Row(
        WorkloadSpec,
        {"batch_size": COUNT, "epochs": COUNT, "iterations": COUNT},
        swaps={"epochs": {"iterations": None, "epochs": 1}},
        build=lambda **kw: replace(TINY, **kw),
    ),
    Row(WorkloadSpec.scaled, {"fraction": NONE}, {"fraction": 0.5}, build=TINY.scaled),
    Row(resolve_scale, {"scale": NONE}, {"scale": 0.5}),
    Row(
        HardwareConfig,
        {
            "cpu_cores": COUNT,
            "max_gpus": COUNT,
            "memory_bytes": AMOUNT,
            "intra_node_bandwidth": RATE,
            "intra_node_latency": AMOUNT,
            "gpus_per_node": COUNT,
            "cache_fraction": SHARE,
        },
        build=lambda **kw: replace(CONFIG_A, **kw),
    ),
    Row(StorageSpec, LINK, {"name": "x", "bandwidth": 1e9, "latency": 1e-3}),
    Row(
        CheckpointPolicy,
        {"interval_steps": COUNT, "interval_seconds": RATE, "state_scale": RATE},
        {"interval_steps": 4},
        swaps={"interval_seconds": {"interval_steps": None, "interval_seconds": 60.0}},
    ),
    Row(
        MembershipEvent,
        {"node": INDEX, "epoch": INDEX, "time": AMOUNT, "after": AMOUNT},
        {"kind": "fail", "node": 0, "epoch": 1},
        swaps={"time": {"epoch": None, "time": 1.0}},
    ),
    Row(
        PartitionEvent,
        {"time": AMOUNT, "duration": RATE},
        {"nodes": [0], "time": 1.0, "duration": 1.0},
    ),
    Row(ClusterMembership, {"initial_nodes": COUNT}, {"initial_nodes": 2}),
    Row(
        Cluster,
        {
            "gpus_per_node": COUNT,
            "cache_fraction": SHARE,
            "link_latency": AMOUNT,
            "link_bandwidth": RATE,
        },
        {"membership": ClusterMembership(2), "hardware": CONFIG_A},
    ),
    Row(
        JobSpec,
        {
            "arrival": AMOUNT,
            "priority": {0: "the default tie-break weight", **COUNT},
            "gradient_bytes": AMOUNT,
            "dataset_size": COUNT,
            "epochs": COUNT,
            "total_steps": COUNT,
            "detection_timeout": AMOUNT,
            "buckets": COUNT,
        },
        {"job_id": "job0", "loader": "minato", "workload_name": "speech_3s"},
    ),
    Row(AllReduceModel, {**LINK, "gradient_bytes": AMOUNT}),
    Row(run_preset, {"scale": RATE}, {"name": "steady", "scale": 0.02}),
    Row(FlatRing, LINK, {"latency": 1e-5, "bandwidth": 1e9}, build=in_env(FlatRing)),
    Row(
        Hierarchical,
        {
            **LINK,
            "intra_latency": AMOUNT,
            "intra_bandwidth": RATE,
            "gpus_per_node": COUNT,
        },
        {
            "latency": 1e-5,
            "bandwidth": 1e9,
            "intra_latency": 1e-6,
            "intra_bandwidth": 1e10,
            "gpus_per_node": 2,
        },
        build=in_env(Hierarchical),
    ),
    Row(
        RingFabric,
        {**LINK, "gradient_bytes": AMOUNT, "detection_timeout": AMOUNT},
        {"latency": 1e-5, "bandwidth": 1e9, "gradient_bytes": 1e6},
        build=in_env(RingFabric),
    ),
    Row(SharedLink, LINK, {"bandwidth": 1e9}, build=in_env(SharedLink)),
    Row(
        Store,
        {"capacity": {INF: "the default: an unbounded store", **COUNT}},
        build=in_env(Store),
    ),
    Row(Resource, {"capacity": COUNT}, build=in_env(Resource)),
    Row(SimMinatoLoader, {
        **MINATO,
        "workers_per_gpu": COUNT,
        "preempt_grace_abs": AMOUNT,
        "preempt_grace_rel": AMOUNT,
        "size_percentile": {0: "every sample is predicted slow"},
    }),
    Row(SimTorchLoader, {
        "num_workers": COUNT,
        "prefetch_factor": COUNT,
        "pin_memory_bandwidth": RATE,
        "worker_startup_seconds": AMOUNT,
        "queue_capacity": COUNT,
        "seed": SEED,
    }),
    Row(SimDALILoader, {
        "num_threads_per_gpu": COUNT,
        "prefetch_queue_depth": COUNT,
        "gpu_speedup": RATE,
        "cpu_decode_bandwidth": RATE,
        "seed": SEED,
    }),
    Row(
        run_simulation,
        {
            "num_gpus": NONE,  # 10**12 exceeds the machine's GPUs
            "cache_fraction": SHARE,
            "series_bucket": RATE,
        },
        {
            "loader_name": "minato",
            "workload": TINY,
            "hardware": CONFIG_A,
            "num_gpus": 1,
        },
    ),
    Row(
        SyntheticKiTS19,
        {
            "n_samples": COUNT,
            "seed": SEED,
            "tiny_fraction": SHARE,
            "payload_voxels": COUNT,
        },
        {"n_samples": 4},
    ),
    Row(
        SyntheticCOCO,
        {"n_samples": COUNT, "seed": SEED, "payload_side": COUNT},
        {"n_samples": 4},
    ),
    Row(
        SyntheticLibriSpeech,
        {
            "n_samples": COUNT,
            "seed": SEED,
            "heavy_period": COUNT,
            "heavy_fraction": SHARE,
            "payload_len": COUNT,
        },
        {"n_samples": 4},
    ),
    Row(
        ReplicatedDataset,
        {"factor": COUNT},
        {"base": SyntheticCOCO(n_samples=4), "factor": 2},
    ),
    Row(SequentialSampler, {"n": EMPTY}, {"n": 8}),
    Row(RandomSampler, {"n": EMPTY, "seed": SEED}, {"n": 8}),
    Row(
        ShardedSampler,
        {
            "n": EMPTY,
            "rank": {0: "the first rank"},  # 10**12 is out of range
            "world_size": COUNT,
            "seed": SEED,
            "epoch_offset": INDEX,
        },
        {"n": 8, "rank": 0, "world_size": 4},
    ),
    Row(
        BatchSampler,
        {"batch_size": COUNT},
        {"sampler": SequentialSampler(8), "batch_size": 2},
    ),
]
REGISTRY = {row.ctor.__qualname__: row for row in ROWS}


def numeric_parameters(ctor):
    """``(name, is_integer)`` for each parameter annotated ``int`` or
    ``float`` (optional or not); ``bool`` knobs are not numeric."""
    for param in inspect.signature(ctor).parameters.values():
        annotation = param.annotation
        if not isinstance(annotation, str):
            annotation = getattr(annotation, "__name__", str(annotation))
        if annotation in NUMERIC:
            yield param.name, "int" in annotation


KNOBS = [
    (name, param, is_int)
    for name, row in REGISTRY.items()
    for param, is_int in numeric_parameters(row.ctor)
]


def call(row, **kwargs):
    return (row.build or row.ctor)(**{**row.base, **kwargs})


@pytest.mark.parametrize("name", REGISTRY)
def test_every_numeric_knob_has_a_row(name):
    """A knob added without a contract (or a row naming a knob that is
    gone) fails here."""
    row = REGISTRY[name]
    assert {param for param, _ in numeric_parameters(row.ctor)} == row.legal.keys()


@pytest.mark.parametrize(
    "name, param, is_int", KNOBS, ids=[f"{n}.{p}" for n, p, _ in KNOBS]
)
def test_a_refused_value_is_refused_at_construction(name, param, is_int):
    row = REGISTRY[name]
    accepted = []
    for value in INT_PROBES if is_int else FLOAT_PROBES:
        if value in row.legal[param]:
            continue
        try:
            call(row, **{**row.swaps.get(param, {}), param: value})
        except ConfigurationError:
            continue
        accepted.append(value)
    assert accepted == [], f"{name}({param}=...) accepted {accepted}"


@pytest.mark.parametrize("name", [n for n in REGISTRY if n != "run_simulation"])
def test_every_base_call_constructs(name):
    """Refusals mean nothing if the base call itself is refused."""
    row = REGISTRY[name]
    call(row)
    for swap in row.swaps.values():
        call(row, **swap)


@pytest.mark.parametrize("loader", ["minato", "pytorch"])
def test_run_simulation_cannot_be_configured_to_deliver_no_batches(loader):
    """The smallest budgets a workload accepts deliver a batch; below them
    (a zero budget or batch size) the workload is refused before it runs."""
    for budget in (dict(iterations=1), dict(iterations=None, epochs=1)):
        result = run_simulation(loader, replace(TINY, **budget), CONFIG_A, 1)
        assert result.batches >= 1 and result.training_time > 0
    for empty in (
        dict(batch_size=0), dict(iterations=0), dict(iterations=-3),
        dict(iterations=None, epochs=0),
    ):
        with pytest.raises(ConfigurationError):
            replace(TINY, **empty)
