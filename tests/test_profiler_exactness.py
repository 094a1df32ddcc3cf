"""`TimeoutProfiler`'s incremental order statistics, pinned to `np.percentile`.

The profiler reads its percentile from a sorted window with numpy's `linear`
interpolation formula written out in Python, and counts slow flags as they
come and go.  Both must equal -- `==` on floats, not `approx` -- what
`np.percentile` and `sum(flags) / len(flags)` give over the same window,
because `repro.sim.loaders` runs this class and every `sim_digest` depends on
the timeout sequence.  CI runs this file at both ends of the supported numpy
range (`numpy-floor` job): a numpy whose formula differs fails here.

`ReferenceTimeoutProfiler` is the specification: the profiler as it was
before the sorted window (`np.fromiter` + `np.percentile` on every
recompute), kept verbatim the way `helpers.CheckedEnvironment` keeps the
kernel's heap.
"""

import math
import threading
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TimeoutProfiler

WINDOWS = (8, 16, 100, 1024)
PERCENTILES = (33.3, 50.0, 75.0, 90.0, 100.0)


class ReferenceTimeoutProfiler:
    """The percentile tracker recomputing from scratch (the specification)."""

    def __init__(
        self,
        percentile=75.0,
        fallback_percentile=90.0,
        warmup_samples=64,
        window=1024,
        max_slow_fraction=0.40,
        override=None,
    ):
        self._percentile = percentile
        self._fallback = fallback_percentile
        self._warmup_samples = warmup_samples
        self._max_slow_fraction = max_slow_fraction
        self._override = override
        self._times = deque(maxlen=window)
        self._flags = deque(maxlen=window)
        self._count = 0
        self._lock = threading.Lock()
        self._cached_timeout = math.inf
        self._dirty = True
        self._using_fallback = False
        self._recompute_every = 16
        self._records_since_recompute = 0

    @property
    def active_percentile(self):
        return self._fallback if self._using_fallback else self._percentile

    def record(self, seconds, flagged_slow=False):
        if seconds < 0:
            raise ValueError(f"negative duration: {seconds!r}")
        with self._lock:
            self._times.append(seconds)
            self._flags.append(bool(flagged_slow))
            self._count += 1
            self._records_since_recompute += 1
            if (
                self._records_since_recompute >= self._recompute_every
                or self._cached_timeout is math.inf
            ):
                self._dirty = True

    def recent_slow_fraction(self):
        with self._lock:
            if not self._flags:
                return 0.0
            return sum(self._flags) / len(self._flags)

    def timeout(self):
        if self._override is not None:
            return self._override
        with self._lock:
            if self._count < self._warmup_samples:
                return math.inf
            if self._dirty:
                self._recompute_locked()
            return self._cached_timeout

    def _recompute_locked(self):
        times = np.fromiter(self._times, dtype=float)
        slow_fraction = (
            sum(self._flags) / len(self._flags) if self._flags else 0.0
        )
        if slow_fraction > self._max_slow_fraction:
            self._using_fallback = True
        elif slow_fraction < self._max_slow_fraction / 2:
            self._using_fallback = False
        percentile = self._fallback if self._using_fallback else self._percentile
        self._cached_timeout = float(np.percentile(times, percentile))
        self._dirty = False
        self._records_since_recompute = 0


def check_window(window, q, seconds, flags):
    """After these records the profiler's percentile and slow fraction are
    numpy's over the last ``window`` of them."""
    profiler = TimeoutProfiler(
        percentile=q, fallback_percentile=100.0, warmup_samples=1, window=window,
        max_slow_fraction=1.0,  # never exceeded: ``q`` stays the active percentile
    )
    for value, flag in zip(seconds, flags):
        profiler.record(value, flagged_slow=flag)
    kept = np.array(seconds[-window:], dtype=float)
    kept_flags = [bool(flag) for flag in flags[-window:]]
    assert profiler.timeout() == float(np.percentile(kept, q))
    assert profiler.recent_slow_fraction() == sum(kept_flags) / len(kept_flags)
    snapshot = profiler.snapshot()
    assert snapshot.p75_seconds == float(np.percentile(kept, 75))
    assert snapshot.recent_slow_fraction == sum(kept_flags) / len(kept_flags)


def records(rng, window, palette, laps, jitter):
    """``laps`` windows' worth of durations drawn from ``palette`` (so:
    duplicates, zeros), spread out by ``jitter`` or left as they are."""
    n = max(1, int(laps * window))
    seconds = rng.choice(np.asarray(palette, dtype=float), size=n)
    if jitter:
        seconds = seconds * rng.random(n)
    return seconds.tolist(), (rng.random(n) < rng.random()).tolist()


@settings(max_examples=120, deadline=None)
@given(
    window=st.sampled_from(WINDOWS),
    q=st.sampled_from(PERCENTILES),
    palette=st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=1, max_size=12
    ),
    laps=st.floats(min_value=0.01, max_value=2.6),
    jitter=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_percentile_and_slow_fraction_equal_numpy(window, q, palette, laps, jitter, seed):
    check_window(window, q, *records(np.random.default_rng(seed), window, palette, laps, jitter))


def test_percentile_and_slow_fraction_equal_numpy_seeded():
    """The property's twin without hypothesis: 300 seeded trials."""
    rng = np.random.default_rng(17)
    for trial in range(300):
        window = WINDOWS[trial % len(WINDOWS)]
        q = PERCENTILES[int(rng.integers(len(PERCENTILES)))]
        palette = [0.0, 0.0, 1.0] + rng.lognormal(size=int(rng.integers(1, 9))).tolist()
        check_window(
            window, q,
            *records(rng, window, palette, laps=rng.uniform(0.01, 2.6), jitter=trial % 3 == 0),
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_timeout_sequence_equals_the_reference(seed):
    """3000 records routed the way the loader routes them (a sample is
    flagged slow when it ran past the current timeout), through warm-up,
    a skewed stretch that trips the P75 -> P90 fallback, and recovery: the
    same timeout after every record, the same active percentile."""
    rng = np.random.default_rng(seed)
    subject = TimeoutProfiler(warmup_samples=64)
    reference = ReferenceTimeoutProfiler(warmup_samples=64)
    fallbacks = 0
    for i in range(3000):
        skewed = 600 <= i < 1400
        seconds = float(rng.lognormal(sigma=1.5 if skewed else 0.25))
        if skewed and i % 2:
            seconds *= 50.0
        timeout = subject.timeout()
        assert timeout == reference.timeout()
        flagged = seconds > timeout or (skewed and i % 2 == 1)
        subject.record(seconds, flagged_slow=flagged)
        reference.record(seconds, flagged_slow=flagged)
        assert subject.active_percentile == reference.active_percentile
        assert subject.recent_slow_fraction() == reference.recent_slow_fraction()
        fallbacks += subject.active_percentile == 90.0
    assert subject.timeout() == reference.timeout()
    assert 0 < fallbacks < 3000  # fell back, and recovered
    assert subject.active_percentile == 75.0
