"""Tests for clocks and the deterministic per-sample scalar draws."""

import threading
import time

import numpy as np
import pytest

from repro.clock import RealClock, ScaledClock, ThreadLocalClock
from repro.data.sample import Sample, SampleSpec


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------


def test_real_clock_advances():
    clock = RealClock()
    t0 = clock.now()
    clock.advance(0.01)
    assert clock.now() - t0 >= 0.009
    assert clock.shared_timeline


def test_scaled_clock_reports_virtual_time():
    clock = ScaledClock(scale=0.01)
    t0 = clock.now()
    time.sleep(0.05)  # 5 virtual seconds at scale 0.01
    elapsed = clock.now() - t0
    assert elapsed >= 4.0
    assert clock.shared_timeline


def test_scaled_clock_advance_blocks_scaled():
    clock = ScaledClock(scale=0.01)
    wall0 = time.monotonic()
    clock.advance(1.0)  # should block ~10 ms wall
    wall = time.monotonic() - wall0
    assert 0.008 <= wall <= 0.5


def test_scaled_clock_rejects_bad_scale():
    with pytest.raises(ValueError):
        ScaledClock(scale=0)


def test_thread_local_clock_is_per_thread():
    clock = ThreadLocalClock()
    clock.advance(5.0)
    other = {}

    def worker():
        other["before"] = clock.now()
        clock.advance(2.0)
        other["after"] = clock.now()

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert other["before"] == 0.0
    assert other["after"] == 2.0
    assert clock.now() == 5.0
    assert not clock.shared_timeline


def test_thread_local_clock_reset_and_negative():
    clock = ThreadLocalClock()
    clock.advance(3.0)
    clock.reset()
    assert clock.now() == 0.0
    with pytest.raises(ValueError):
        clock.advance(-1.0)


# ---------------------------------------------------------------------------
# Deterministic scalar draws
# ---------------------------------------------------------------------------


def spec(seed=1):
    return SampleSpec(index=0, raw_nbytes=1, seed=seed, modality="t")


def test_u01_deterministic_and_bounded():
    s = spec()
    assert s.u01(5) == s.u01(5)
    values = [s.u01(salt, stream) for salt in range(20) for stream in range(5)]
    assert all(0 <= v < 1 for v in values)
    assert len(set(values)) > 90  # essentially all distinct


def test_u01_varies_with_seed_and_salt():
    assert spec(1).u01(3) != spec(2).u01(3)
    assert spec(1).u01(3) != spec(1).u01(4)


def test_uniform_range():
    s = spec()
    for salt in range(50):
        v = s.uniform(salt, 2.0, 5.0)
        assert 2.0 <= v < 5.0


def test_normal_moments():
    values = np.array([spec(seed).normal(7) for seed in range(4000)])
    assert abs(values.mean()) < 0.08
    assert abs(values.std() - 1.0) < 0.08


def test_lognormal_mean_one():
    values = np.array([spec(seed).lognormal(9, sigma=0.3) for seed in range(4000)])
    assert abs(values.mean() - 1.0) < 0.05
    assert (values > 0).all()


def test_sample_clone_meta_shares_payload():
    s = Sample(spec=spec(), data=np.ones(3), nbytes=24, applied=["A"])
    clone = s.clone_meta()
    assert clone.data is s.data
    clone.applied.append("B")
    assert s.applied == ["A"]
