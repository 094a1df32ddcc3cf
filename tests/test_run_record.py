"""A run's record is columns, and its series are computed when read.

* ``IntervalRecorder.utilization`` reads the columns with the one copy of
  ``average_utilization``'s clipping arithmetic: bit for bit the function
  applied to the filtered ``.intervals``, and recording builds no
  ``BusyInterval``;
* every lazy ``SimResult`` series, over all four loaders, equals the eager
  function applied to the same run's intervals, meter and disk log -- with
  the default bucket, an explicit ``series_bucket`` and through ``to_csv``;
* a result keeps no kernel and no ``SimContext`` alive, and a run whose
  series nobody reads computes none of them.
"""

import filecmp
import gc
import os
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import write_csv
from repro.engine import metrics
from repro.engine.metrics import (
    IntervalRecorder,
    ThroughputMeter,
    average_utilization,
    utilization_series,
)
from repro.sim import links, runner
from repro.sim.kernel import Environment
from repro.sim.loaders import SimContext
from repro.sim.runner import LOADER_NAMES, run_simulation
from repro.sim.workloads import CONFIG_A, make_workload

# ---------------------------------------------------------------------------
# the columns against the function over objects
# ---------------------------------------------------------------------------

TAGS = ("train", "preprocess", "slow")

instants = st.floats(min_value=-5.0, max_value=60.0, allow_nan=False)
lengths = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0))


@settings(max_examples=300, deadline=None)
@given(
    recorded=st.lists(st.tuples(instants, lengths, st.sampled_from(TAGS)), max_size=30),
    window=st.tuples(instants, instants),
    capacity=st.sampled_from((1.0, 2, 3.0, 0.5, 0, -1.0)),
    tag=st.sampled_from((None,) + TAGS + ("absent",)),
)
def test_utilization_off_the_columns_is_the_function_bit_for_bit(
    recorded, window, capacity, tag
):
    """Windows clipping either side, inverted or empty windows, zero-length
    intervals, any capacity and any tag filter."""
    recorder = IntervalRecorder()
    for start, length, t in recorded:
        recorder.record(start, start + length, t)
    start, end = window
    chosen = [i for i in recorder.intervals if tag is None or i.tag == tag]
    expected = average_utilization(chosen, start, end, capacity=capacity)
    got = recorder.utilization(start, end, capacity=capacity, tag=tag)
    assert got == expected and type(got) is type(expected)


def test_utilization_off_the_columns_on_200_seeded_recordings():
    """The property's deterministic twin, on continuous values: the sums
    must be taken in record order to agree to the last bit."""
    for trial in range(200):
        rng = random.Random(trial)
        recorder = IntervalRecorder()
        for _ in range(rng.randint(0, 60)):
            start = rng.uniform(-5.0, 60.0)
            recorder.record(start, start + rng.uniform(0.0, 20.0), rng.choice(TAGS))
        start, end = sorted((rng.uniform(-5.0, 60.0), rng.uniform(-5.0, 60.0)))
        capacity = rng.choice((1.0, 3, 0.5))
        tag = rng.choice((None,) + TAGS)
        chosen = [i for i in recorder.intervals if tag is None or i.tag == tag]
        assert recorder.utilization(start, end, capacity, tag) == average_utilization(
            chosen, start, end, capacity
        ), trial


def test_recording_and_reading_scalars_builds_no_interval_object(monkeypatch):
    def refused(*_args, **_kwargs):
        raise AssertionError("a BusyInterval was built")

    monkeypatch.setattr(metrics, "BusyInterval", refused)
    recorder = IntervalRecorder("gpu0")
    recorder.record(0.0, 1.0, "train")
    recorder.record(0.5, 2.0, "preprocess")
    assert recorder.utilization(0.0, 2.0) == 1.0
    assert recorder.utilization(0.0, 2.0, tag="train") == 0.5
    assert recorder.busy_seconds() == 2.5
    with pytest.raises(AssertionError, match="BusyInterval"):
        recorder.intervals


# ---------------------------------------------------------------------------
# lazy series against the eager functions, on all four loaders
# ---------------------------------------------------------------------------


def captured_run(monkeypatch, loader, **kwargs):
    """``run_simulation`` plus the context it ran on."""
    contexts = []

    class Captured(SimContext):
        def __init__(self, *args, **kw) -> None:
            super().__init__(*args, **kw)
            contexts.append(self)

    monkeypatch.setattr(runner, "SimContext", Captured)
    # a cache a fifth of the dataset: the disk serves reads every epoch
    workload = make_workload("image_segmentation", dataset_size=20).scaled(0.04)
    result = run_simulation(
        loader, workload, CONFIG_A, num_gpus=2, cache_fraction=0.001, **kwargs
    )
    (ctx,) = contexts
    return result, ctx


def eager_series(ctx, duration, bucket):
    """The four series the way every run computed them before they became
    lazy."""
    gpu_intervals = [i for rec in ctx.gpu_recorders for i in rec.intervals]
    return {
        "throughput": ctx.meter.series(bucket=bucket),
        "gpu": utilization_series(
            gpu_intervals, 0.0, duration, bucket=bucket, capacity=ctx.num_gpus
        ),
        "cpu": utilization_series(
            ctx.cpu_recorder.intervals, 0.0, duration, bucket=bucket,
            capacity=ctx.hardware.cpu_cores,
        ),
        "disk": links.throughput_series(ctx.disk.transfers, bucket=bucket),
    }


@pytest.mark.parametrize("series_bucket", (None, 0.37))
@pytest.mark.parametrize("loader", LOADER_NAMES)
def test_every_lazy_series_is_the_eager_one(monkeypatch, tmp_path, loader, series_bucket):
    result, ctx = captured_run(monkeypatch, loader, series_bucket=series_bucket)
    duration = result.training_time
    bucket = max(1.0, duration / 200.0) if series_bucket is None else series_bucket
    eager = eager_series(ctx, duration, bucket)
    lazy = {
        "throughput": result.throughput_series,
        "gpu": result.gpu_series,
        "cpu": result.cpu_series,
        "disk": result.disk_series,
    }
    assert all(eager.values()), "every series has data on this run"
    assert lazy == eager
    # the scalars, off the columns, are the function over the objects
    assert result.gpu_utilization == [
        average_utilization([i for i in r.intervals if i.tag == "train"], 0.0, duration)
        for r in ctx.gpu_recorders
    ]
    assert result.gpu_total_utilization == [
        average_utilization(r.intervals, 0.0, duration) for r in ctx.gpu_recorders
    ]
    assert result.cpu_utilization == average_utilization(
        ctx.cpu_recorder.intervals, 0.0, duration, capacity=CONFIG_A.cpu_cores
    )
    # and the CSV export writes the same bytes as the eager series would
    written = result.to_csv(str(tmp_path / "lazy"))
    units = {"throughput": "bytes_per_s", "gpu": "utilization", "cpu": "utilization",
             "disk": "bytes_per_s"}
    for path in written:
        kind = os.path.basename(path).rsplit("_", 1)[1][: -len(".csv")]
        reference = write_csv(
            str(tmp_path / "eager" / os.path.basename(path)),
            ["t_seconds", units[kind]], eager[kind],
        )
        assert filecmp.cmp(path, reference, shallow=False)


# ---------------------------------------------------------------------------
# retention and laziness
# ---------------------------------------------------------------------------


def reachable(root):
    """Every object reachable from ``root`` by ``gc.get_referents``, not
    entering classes or modules (they reach everything) and entering a
    function only through its closure and defaults."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            refs = list(obj.__closure__ or ()) + list(obj.__defaults__ or ())
        else:
            refs = gc.get_referents(obj)
        for ref in refs:
            if isinstance(ref, (type, types.ModuleType)) or id(ref) in seen:
                continue
            seen.add(id(ref))
            stack.append(ref)
    return found


@pytest.mark.parametrize("loader", LOADER_NAMES)
def test_a_result_keeps_no_kernel_and_no_context_alive(monkeypatch, loader):
    result, ctx = captured_run(monkeypatch, loader, keep_batch_log=True)
    kept = reachable(result)
    assert any(isinstance(obj, IntervalRecorder) for obj in kept)
    assert not [obj for obj in kept if isinstance(obj, (Environment, SimContext))]
    # reading the series keeps nothing more alive
    result.gpu_series, result.disk_series
    kept = reachable(result)
    assert not [obj for obj in kept if isinstance(obj, (Environment, SimContext))]


def test_the_walk_sees_a_context_a_closure_keeps(monkeypatch):
    """The walk is strong enough to catch what a lazy series computed by a
    closure over the context would keep."""
    result, ctx = captured_run(monkeypatch, "minato")
    result.extras["series"] = lambda: ctx.meter.series()
    assert [obj for obj in reachable(result) if isinstance(obj, SimContext)] == [ctx]


def test_a_run_nobody_plots_computes_no_series(monkeypatch):
    def refused(*_args, **_kwargs):
        raise AssertionError("a series was computed")

    with monkeypatch.context() as patched:
        for owner, name in (
            (metrics, "utilization_series"),
            (runner, "utilization_series"),
            (links, "throughput_series"),
            (runner, "throughput_series"),
            (ThroughputMeter, "series"),
        ):
            patched.setattr(owner, name, refused)
        workload = make_workload("speech_3s", dataset_size=60).scaled(0.02)
        result = run_simulation("minato", workload, CONFIG_A, num_gpus=2)
        assert 0 < result.mean_gpu_utilization <= 1
        assert 0 < result.cpu_utilization <= 1
        result.summary()
        with pytest.raises(AssertionError, match="series was computed"):
            result.gpu_series
    # computed on first read, then the same list
    first = result.gpu_series
    assert first and result.gpu_series is first


def test_the_series_are_read_only():
    workload = make_workload("speech_3s", dataset_size=60).scaled(0.02)
    result = run_simulation("minato", workload, CONFIG_A, num_gpus=1)
    for name in ("throughput_series", "gpu_series", "cpu_series", "disk_series"):
        with pytest.raises(AttributeError):
            setattr(result, name, [])
