"""Calibration: chunk time inside an interval is removed and the rest is
scaled by the median chunk time near it."""

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402


def test_scaled_removes_chunk_time_and_scales_by_the_nearby_median():
    s = calibrate.Sampler()
    # chunks (start, seconds): one long before the interval, three near it
    for start, secs in ((0.0, 0.009), (10.0, 0.003), (10.5, 0.003), (10.6, 0.006)):
        s.starts.append(start)
        s.secs.append(secs)
    s.spent = 0.021
    # interval 10.1..11.1, the last two chunks (0.009 s) inside it
    got = s.scaled(10.1, 11.1, spent0=0.012)
    assert got == pytest.approx((1.0 - 0.009) * calibrate.REF_S / 0.003)


def test_scaled_uses_the_last_chunk_when_none_is_near():
    s = calibrate.Sampler()
    s.starts.append(0.0)
    s.secs.append(calibrate.REF_S / 2)
    assert s.scaled(100.0, 101.0, spent0=0.0) == pytest.approx(2.0)


def test_sampler_ticks_while_started_and_stops():
    s = calibrate.Sampler()
    s.start()
    try:
        end = time.process_time() + 10 * calibrate.EVERY_S
        while time.process_time() < end:
            pass
    finally:
        s.stop()
    ticks = len(s.secs)
    assert ticks >= 3
    end = time.process_time() + 3 * calibrate.EVERY_S
    while time.process_time() < end:
        pass
    assert len(s.secs) == ticks
