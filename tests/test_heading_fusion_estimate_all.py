"""Tests for the complementary heading filter."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.imu.sensors import ImuSynthesizer
from repro.motion.headingfusion import ComplementaryHeadingFilter
from repro.types import ImuSample, ImuTrace, Vec2, wrap_angle
from repro.world.trajectory import l_shape, straight_walk


class TestComplementaryHeadingFilter:
    def test_tracks_l_walk_turn(self):
        rng = np.random.default_rng(3)
        walk = l_shape(Vec2(0, 0), 0.0)
        out = ImuSynthesizer(rng).synthesize(walk)
        fused = ComplementaryHeadingFilter().relative_heading(out.trace)
        ts = out.trace.timestamps()
        # Before the turn: heading ~0; after: ~ +90 degrees.
        before = fused[(ts > walk.times[0] + 0.3) & (ts < walk.times[1] - 0.7)]
        after = fused[ts > walk.times[1] + 0.9]
        assert abs(np.median(before)) < math.radians(12.0)
        assert abs(np.median(after) - math.pi / 2) < math.radians(12.0)

    def test_smoother_than_raw_magnetometer(self):
        rng = np.random.default_rng(4)
        walk = straight_walk(Vec2(0, 0), 0.5, 6.0)
        out = ImuSynthesizer(rng).synthesize(walk)
        fused = ComplementaryHeadingFilter().filter(out.trace)
        raw = out.trace.mag_heading()
        assert np.std(np.diff(fused)) < np.std(np.diff(raw))

    def test_bounds_gyro_drift(self):
        # A biased gyro alone would drift without bound; the magnetometer
        # correction must cap the error.
        ts = np.arange(0, 60, 0.02)
        trace = ImuTrace([
            ImuSample(t, 0.0, 0.05, 0.0) for t in ts  # 0.05 rad/s bias
        ])
        fused = ComplementaryHeadingFilter(mag_time_constant_s=3.0).filter(trace)
        # Pure integration would reach 3 rad; fused stays near the (true)
        # zero magnetometer heading.
        assert abs(wrap_angle(fused[-1])) < 0.3

    def test_empty_trace(self):
        assert ComplementaryHeadingFilter().filter(ImuTrace([])).size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ComplementaryHeadingFilter(mag_time_constant_s=0.0)
