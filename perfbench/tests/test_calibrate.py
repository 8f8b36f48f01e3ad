"""Reference seconds cancel a uniform change in machine speed."""

from __future__ import annotations

import calibrate


def test_speed_factor_cancels_uniform_slowdown():
    ref = calibrate.REFERENCE_CHUNK_S
    assert calibrate.speed_factor([ref] * 5) == 1.0
    measured_s = 3.0
    for slowdown in (0.5, 1.3, 2.0):
        factor = calibrate.speed_factor([ref * slowdown] * 5)
        assert abs(measured_s * slowdown * factor - measured_s) < 1e-9


def test_chunk_takes_time():
    assert calibrate.chunk() > 0
