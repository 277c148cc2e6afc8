"""Tests for the inertial-sensor substrate."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.imu.gait import (
    GaitModel,
    step_frequency_for_speed,
    step_length_for_frequency,
)
from repro.imu.gyro import GyroModel, TurnEvent
from repro.imu.magnetometer import MagnetometerModel, smooth_heading_through_turns
from repro.imu.sensors import ImuSynthesizer
from repro.types import Vec2
from repro.world.trajectory import l_shape, straight_walk


class TestGaitRelations:
    def test_length_frequency_inverse(self):
        for v in (0.6, 1.0, 1.4):
            f = step_frequency_for_speed(v)
            assert step_length_for_frequency(f) * f == pytest.approx(v)

    def test_faster_walking_longer_steps(self):
        assert step_length_for_frequency(2.2) > step_length_for_frequency(1.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            step_frequency_for_speed(0.0)
        with pytest.raises(ConfigurationError):
            step_length_for_frequency(-1.0)


class TestGaitModel:
    def _walkmask(self, n=500, rate=50.0):
        ts = np.arange(n) / rate
        walking = np.ones(n, dtype=bool)
        freq = np.full(n, 1.8)
        return ts, walking, freq

    def test_step_count_matches_duration(self, rng):
        ts, walking, freq = self._walkmask()
        g = GaitModel(rng)
        _, steps = g.synthesize(ts, walking, freq)
        # 10 s at 1.8 Hz: about 18 steps.
        assert 15 <= len(steps) <= 20

    def test_stationary_produces_only_noise(self, rng):
        ts, walking, freq = self._walkmask()
        walking[:] = False
        g = GaitModel(rng, noise_std_g=0.02)
        signal, steps = g.synthesize(ts, walking, freq)
        assert len(steps) == 0
        assert np.std(signal) < 0.05

    def test_signal_amplitude_realistic(self, rng):
        ts, walking, freq = self._walkmask()
        signal, _ = GaitModel(rng).synthesize(ts, walking, freq)
        assert 0.1 < np.max(np.abs(signal)) < 1.5

    def test_validation(self, rng):
        g = GaitModel(rng)
        with pytest.raises(ConfigurationError):
            g.synthesize(np.array([0.0]), np.array([True]), np.array([1.8]))
        with pytest.raises(ConfigurationError):
            g.synthesize(np.arange(5.0), np.ones(4, bool), np.ones(5))


class TestGyroModel:
    def test_turn_bump_integrates_to_angle(self, rng):
        ts = np.arange(500) / 50.0
        g = GyroModel(rng, noise_std_rad_s=0.0, bias_rad_s=0.0, sway_amp_rad_s=0.0)
        rate = g.synthesize(ts, [TurnEvent(5.0, math.pi / 2, 1.0)])
        integral = np.trapezoid(rate, ts)
        assert integral == pytest.approx(math.pi / 2, abs=0.02)

    def test_bump_localised(self, rng):
        ts = np.arange(500) / 50.0
        g = GyroModel(rng, noise_std_rad_s=0.0, bias_rad_s=0.0, sway_amp_rad_s=0.0)
        rate = g.synthesize(ts, [TurnEvent(5.0, 1.5, 0.8)])
        assert np.all(np.abs(rate[ts < 4.4]) < 1e-9)
        assert np.max(np.abs(rate[(ts > 4.6) & (ts < 5.4)])) > 1.0

    def test_invalid_duration(self, rng):
        g = GyroModel(rng)
        with pytest.raises(ConfigurationError):
            g.synthesize(np.arange(10.0), [TurnEvent(5.0, 1.0, 0.0)])


class TestMagnetometer:
    def test_tracks_true_heading(self, rng):
        m = MagnetometerModel(rng)
        ts = np.arange(200) / 50.0
        true = np.full(200, 1.0)
        out = m.synthesize(ts, true)
        assert abs(np.mean(out) - 1.0) < math.radians(12.0)

    def test_output_wrapped(self, rng):
        m = MagnetometerModel(rng)
        ts = np.arange(100) / 50.0
        out = m.synthesize(ts, np.full(100, math.pi - 0.01))
        assert np.all(out > -math.pi - 1e-9) and np.all(out <= math.pi + 1e-9)

    def test_smooth_heading_through_turns(self):
        ts = np.arange(100) / 10.0
        heading = np.where(ts < 5.0, 0.0, math.pi / 2)
        smoothed = smooth_heading_through_turns(ts, heading, np.array([5.0]),
                                                turn_duration_s=1.0)
        mid = smoothed[(ts > 4.9) & (ts < 5.1)]
        assert np.all(mid > 0.1) and np.all(mid < math.pi / 2 - 0.1)

    def test_alignment_mismatch(self, rng):
        m = MagnetometerModel(rng)
        with pytest.raises(ConfigurationError):
            m.synthesize(np.arange(5.0), np.arange(4.0))


class TestImuSynthesizer:
    def test_l_walk_has_one_turn(self, rng):
        out = ImuSynthesizer(rng).synthesize(l_shape(Vec2(0, 0), 0.0))
        assert len(out.true_turns) == 1
        assert out.true_turns[0].angle_rad == pytest.approx(math.pi / 2, abs=0.01)

    def test_straight_walk_has_no_turns(self, rng):
        out = ImuSynthesizer(rng).synthesize(straight_walk(Vec2(0, 0), 0.0, 4.0))
        assert out.true_turns == []

    def test_step_count_scales_with_length(self, rng):
        short = ImuSynthesizer(rng).synthesize(
            straight_walk(Vec2(0, 0), 0.0, 2.0)
        )
        rng2 = np.random.default_rng(1)
        long = ImuSynthesizer(rng2).synthesize(
            straight_walk(Vec2(0, 0), 0.0, 8.0)
        )
        assert len(long.true_step_times) > 2 * len(short.true_step_times)

    def test_sampling_rate(self, rng):
        out = ImuSynthesizer(rng, rate_hz=100.0).synthesize(
            straight_walk(Vec2(0, 0), 0.0, 3.0)
        )
        assert out.trace.rate_hz() == pytest.approx(100.0, rel=0.05)

    def test_padding_covers_trajectory(self, rng):
        walk = l_shape(Vec2(0, 0), 0.0)
        out = ImuSynthesizer(rng).synthesize(walk, t_pad_s=1.0)
        ts = out.trace.timestamps()
        assert ts[0] <= walk.times[0] - 0.9
        assert ts[-1] >= walk.times[-1] + 0.9
