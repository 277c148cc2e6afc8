"""Tests for step/turn detection and dead reckoning."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, InsufficientDataError
from repro.filters.smoothing import moving_average
from repro.imu.sensors import ImuSynthesizer
from repro.motion.deadreckoning import MotionTracker
from repro.motion.stepcounter import DetectedStep, StepDetector
from repro.motion.steplength import StepLengthModel, walking_distance
from repro.motion.turndetector import DetectedTurn, TurnDetector
from repro.types import ImuSample, ImuTrace, Vec2, wrap_angle
from repro.world.trajectory import l_shape, straight_walk


def _imu_for(trajectory, seed=0, **kw):
    return ImuSynthesizer(np.random.default_rng(seed), **kw).synthesize(trajectory)


class TestStepDetector:
    def test_counts_match_ground_truth(self):
        out = _imu_for(straight_walk(Vec2(0, 0), 0.0, 6.0))
        detected = StepDetector().count(out.trace)
        assert abs(detected - len(out.true_step_times)) <= 1

    def test_step_times_near_truth(self):
        out = _imu_for(straight_walk(Vec2(0, 0), 0.0, 5.0), seed=3)
        steps = StepDetector().detect(out.trace)
        for s in steps:
            assert min(abs(s.time - t) for t in out.true_step_times) < 0.35

    def test_stationary_no_steps(self, rng):
        ts = np.arange(300) / 50.0
        trace = ImuTrace([
            ImuSample(t, float(rng.normal(0, 0.02)), 0.0, 0.0) for t in ts
        ])
        assert StepDetector().count(trace) == 0

    def test_too_short_trace(self):
        trace = ImuTrace([ImuSample(0.0, 0.5, 0.0, 0.0)])
        assert StepDetector().detect(trace) == []

    def test_min_interval_enforced(self):
        # Two merged peaks 0.1 s apart count once.
        ts = np.arange(200) / 50.0
        sig = np.exp(-((ts - 1.0) ** 2) / 0.002) + np.exp(-((ts - 1.1) ** 2) / 0.002)
        trace = ImuTrace([ImuSample(t, float(v), 0.0, 0.0)
                          for t, v in zip(ts, sig)])
        det = StepDetector(smooth_window=1, vote_radius=2)
        assert det.count(trace) <= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StepDetector(vote_radius=0)
        with pytest.raises(ConfigurationError):
            StepDetector(threshold_fraction=1.5)


class TestStepLength:
    def test_distance_accuracy_on_synthetic_gait(self):
        """The paper reports ~94.77 % step-distance accuracy; demand >= 85 %
        on the synthetic gait."""
        walk = straight_walk(Vec2(0, 0), 0.0, 8.0)
        out = _imu_for(walk, seed=1)
        steps = StepDetector().detect(out.trace)
        est = walking_distance(steps)
        assert abs(est - 8.0) / 8.0 < 0.15

    def test_zero_steps_zero_distance(self):
        assert walking_distance([]) == 0.0

    def test_single_step_nominal(self):
        d = walking_distance([DetectedStep(1.0, 0.3)])
        assert 0.4 <= d <= 1.0

    def test_model_clamps(self):
        m = StepLengthModel()
        assert m.length_for_frequency(0.1) == m.min_length_m
        assert m.length_for_frequency(10.0) == m.max_length_m
        with pytest.raises(ConfigurationError):
            m.length_for_frequency(0.0)

    def test_unordered_steps_rejected(self):
        steps = [DetectedStep(2.0, 0.3), DetectedStep(2.0, 0.3)]
        with pytest.raises(InsufficientDataError):
            walking_distance(steps)


class TestTurnDetector:
    def test_detects_l_turn_angle(self):
        """Angle error target from the paper: 3.45 degrees average; allow 10
        on a single noisy synthetic run."""
        out = _imu_for(l_shape(Vec2(0, 0), 0.0), seed=2)
        turns = TurnDetector().detect(out.trace)
        assert len(turns) == 1
        err_deg = abs(math.degrees(turns[0].angle_rad) - 90.0)
        assert err_deg < 10.0

    def test_detects_negative_turn(self):
        out = _imu_for(l_shape(Vec2(0, 0), 0.0, turn_rad=-math.pi / 2), seed=2)
        turns = TurnDetector().detect(out.trace)
        assert len(turns) == 1
        assert turns[0].angle_rad < 0

    def test_straight_walk_no_turns(self):
        out = _imu_for(straight_walk(Vec2(0, 0), 0.0, 5.0), seed=4)
        assert TurnDetector().detect(out.trace) == []

    def test_bump_bounds_ordered(self):
        out = _imu_for(l_shape(Vec2(0, 0), 0.0), seed=5)
        for t in TurnDetector().detect(out.trace):
            assert t.t_begin < t.t_end
            assert t.t_begin <= t.t_mid <= t.t_end

    def test_hysteresis_validation(self):
        with pytest.raises(ConfigurationError):
            TurnDetector(rate_threshold_rad_s=0.1, release_threshold_rad_s=0.2)


class TestMotionTracker:
    def test_l_walk_endpoint(self):
        walk = l_shape(Vec2(0, 0), 0.0)
        out = _imu_for(walk, seed=0)
        track = MotionTracker().track(out.trace)
        true_end = walk.displacement_in_frame(walk.times[-1])
        assert track.end_position.distance_to(true_end) < 0.8

    def test_track_independent_of_world_heading(self):
        # The measurement frame definition: same walk rotated in the world
        # must produce the same frame displacements.
        ends = []
        for heading in (0.0, math.radians(120.0)):
            walk = l_shape(Vec2(0, 0), heading)
            out = _imu_for(walk, seed=6)
            ends.append(MotionTracker().track(out.trace).end_position)
        assert ends[0].distance_to(ends[1]) < 0.7

    def test_displacement_monotone_times(self):
        out = _imu_for(l_shape(Vec2(0, 0), 0.0), seed=7)
        track = MotionTracker().track(out.trace)
        assert track.times == sorted(track.times)

    def test_displacement_before_start_is_origin(self):
        out = _imu_for(l_shape(Vec2(0, 0), 0.0), seed=8)
        track = MotionTracker().track(out.trace)
        assert track.displacement_at(-10.0) == Vec2(0.0, 0.0)

    def test_right_angle_assumption(self):
        walk = l_shape(Vec2(0, 0), 0.0)
        out = _imu_for(walk, seed=9)
        track = MotionTracker(assume_right_angle=True).track(out.trace)
        assert len(track.turns) == 1
        assert abs(track.turns[0].angle_rad) == pytest.approx(math.pi / 2)

    def test_total_distance_close_to_truth(self):
        walk = l_shape(Vec2(0, 0), 0.0)
        out = _imu_for(walk, seed=10)
        track = MotionTracker().track(out.trace)
        assert abs(track.total_distance() - 4.5) / 4.5 < 0.2

    def test_empty_trace(self):
        track = MotionTracker().track(ImuTrace([]))
        assert track.end_position == Vec2(0.0, 0.0)
        assert track.total_distance() == 0.0

    def test_heading_fusion_mode_comparable(self):
        """The complementary-filter heading source must land near the
        turn-event source on a clean L-walk."""
        walk = l_shape(Vec2(0, 0), 0.4)
        out = _imu_for(walk, seed=11)
        true_end = walk.displacement_in_frame(walk.times[-1])
        turn_based = MotionTracker().track(out.trace)
        fused = MotionTracker(use_heading_fusion=True).track(out.trace)
        assert fused.end_position.distance_to(true_end) < 1.2
        assert (fused.end_position.distance_to(turn_based.end_position)
                < 1.0)


def reference_step_detect(det, trace):
    """:meth:`StepDetector.detect` as a per-sample scan: the reference its
    vectorized vote must equal, NaN samples and ties included."""
    if len(trace) < 2 * det.vote_radius + 1:
        return []
    ts = trace.timestamps()
    smoothed = moving_average(trace.accel(), det.smooth_window)
    positive = smoothed[smoothed > 0]
    if positive.size == 0:
        return []
    gate = max(det.min_amplitude_g,
               det.threshold_fraction * float(np.percentile(positive, 90)))
    steps = []
    last_t = -np.inf
    r = det.vote_radius
    for i in range(r, len(smoothed) - r):
        v = smoothed[i]
        if v < gate:
            continue
        neighbourhood = smoothed[i - r : i + r + 1]
        if v < neighbourhood.max() or int(np.argmax(neighbourhood)) != r:
            continue
        if ts[i] - last_t < det.min_step_interval_s:
            continue
        steps.append(DetectedStep(float(ts[i]), float(v)))
        last_t = ts[i]
    return steps


def _reference_finish_bump(det, ts, heading, start_idx, end_idx, turns):
    """A closed bump as a turn, headings averaged with ``np.mean``."""
    def circular_mean(angles):
        return math.atan2(np.mean(np.sin(angles)), np.mean(np.cos(angles)))

    t0, t1 = ts[start_idx], ts[end_idx]
    if t1 - t0 < det.min_duration_s:
        return
    before = heading[(ts >= t0 - det.heading_window_s) & (ts < t0)]
    after = heading[(ts > t1) & (ts <= t1 + det.heading_window_s)]
    if before.size == 0 or after.size == 0:
        return
    angle = wrap_angle(circular_mean(after) - circular_mean(before))
    if abs(angle) < det.min_angle_rad:
        return
    turns.append(DetectedTurn(float(t0), float(t1), float(angle)))


def reference_turn_detect(det, trace):
    """:meth:`TurnDetector.detect` as a per-sample hysteresis scan."""
    if len(trace) < 5:
        return []
    ts = trace.timestamps()
    rate = moving_average(trace.gyro_z(), det.smooth_window)
    heading = trace.mag_heading()
    turns = []
    in_bump = False
    start_idx = 0
    for i, r in enumerate(np.abs(rate)):
        if not in_bump and r >= det.rate_threshold_rad_s:
            in_bump = True
            start_idx = i
        elif in_bump and r < det.release_threshold_rad_s:
            in_bump = False
            _reference_finish_bump(det, ts, heading, start_idx, i, turns)
    if in_bump:
        _reference_finish_bump(det, ts, heading, start_idx, len(ts) - 1,
                               turns)
    return turns


def _random_imu(seed, n):
    """A trace built to stress the detectors' edge rules: accel and yaw
    rate on a coarse grid (so vote ties are common), runs of one to four
    yaw-rate samples above onset, between the thresholds and below
    release (so a bump can reopen right after it closes), NaN samples,
    uneven sample spacing, and on odd seeds a bump still open at the end."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.choice([0.02, 0.05, 0.1, 0.2], size=n))
    accel = rng.choice([-0.1, 0.0, 0.2, 0.5, 0.5, 0.9], size=n)
    levels = rng.choice([0.0, 0.3, 0.6, -0.8], size=n)
    gyro = np.repeat(levels, rng.integers(1, 5, n))[:n] + rng.normal(0.0, 0.05, n)
    if seed % 2:
        gyro[-6:] = 1.0
    heading = rng.uniform(-math.pi, math.pi, n)
    for arr in (accel, gyro, heading):
        arr[rng.random(n) < 0.03] = np.nan
    return ImuTrace([ImuSample(*row) for row in zip(ts, accel, gyro, heading)])


def _assert_same(got, want):
    """The same detections, NaN fields equal to NaN."""
    rows = [np.array([dataclasses.astuple(d) for d in ds], dtype=float)
            for ds in (got, want)]
    assert np.array_equal(rows[0], rows[1], equal_nan=True)


class TestVectorizedDetectorsEqualTheScan:
    """The vectorized step vote and bump walk give exactly what the
    per-sample scans give (:func:`reference_step_detect`,
    :func:`reference_turn_detect`)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_steps(self, seed):
        trace = _random_imu(seed, 30 + 7 * seed)
        for det in (StepDetector(), StepDetector(smooth_window=1,
                                                 vote_radius=2)):
            _assert_same(det.detect(trace), reference_step_detect(det, trace))

    @pytest.mark.parametrize("seed", range(40))
    def test_turns(self, seed):
        trace = _random_imu(seed, 30 + 7 * seed)
        for det in (TurnDetector(), TurnDetector(smooth_window=1,
                                                 min_duration_s=0.0,
                                                 min_angle_rad=0.0)):
            _assert_same(det.detect(trace), reference_turn_detect(det, trace))

    def test_cases_reach_the_edge_rules(self):
        """The random traces do hold ties, NaN steps and open bumps."""
        ties = nan_steps = open_bumps = 0
        for seed in range(40):
            trace = _random_imu(seed, 30 + 7 * seed)
            acc = trace.accel()
            ties += int(np.any(acc[1:] == acc[:-1]))
            steps = reference_step_detect(
                StepDetector(smooth_window=1, vote_radius=2), trace)
            nan_steps += sum(math.isnan(s.amplitude) for s in steps)
            # With smooth_window=1 a bump is open at the end when the
            # last onset sample comes after the last release sample.
            speed = np.abs(trace.gyro_z())
            onset = np.flatnonzero(speed >= 0.45)
            release = np.flatnonzero(speed < 0.2)
            open_bumps += bool(onset.size) and (
                not release.size or onset[-1] > release[-1])
        assert ties and nan_steps and open_bumps

    def test_serving_walk(self):
        out = _imu_for(l_shape(Vec2(0, 0), 0.3), seed=7)
        assert (StepDetector().detect(out.trace)
                == reference_step_detect(StepDetector(), out.trace))
        assert (TurnDetector().detect(out.trace)
                == reference_turn_detect(TurnDetector(), out.trace))
