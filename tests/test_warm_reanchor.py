"""Re-anchoring the warm seed into each new window's measurement frame.

A window's frame has its origin at the observer's position at the window's
first IMU sample and its +x axis along the walk's direction there, so it
moves with the walk from one solve to the next. A fit's warm state records
the observer's pose at its newest matched RSS time; the next window reads
the pose at that time from its own track (:meth:`MotionTrack.pose_at`) and
carries the seed across. A state without a pose, or a window whose track
does not span the state's reference time, seeds unshifted.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.channel.pathloss import rss_at
from repro.core.estimator import WarmStartState, fit_batch
from repro.core.pipeline import LocBLE
from repro.imu.sensors import ImuSynthesizer
from repro.motion.deadreckoning import MotionTracker
from repro.service import SessionConfig, TrackingSession
from repro.service.session import ImuTick
from repro.types import ImuTrace, RssiSample, Vec2
from repro.world.trajectory import Trajectory, l_shape, straight_walk

_POSE_FIELDS = ("ref_t", "ref_x", "ref_y", "ref_heading")


def _imu_for(walk, seed=0):
    return ImuSynthesizer(np.random.default_rng(seed)).synthesize(walk).trace


class TestPoseAt:
    def _assert_pose_is_last_step(self, track, t):
        pos, heading = track.pose_at(t)
        i = max(k for k, tk in enumerate(track.times) if tk <= t)
        assert pos == track.positions[i] and heading == track.headings[i]

    def test_straight_walk(self):
        track = MotionTracker().track(_imu_for(straight_walk(
            Vec2(0, 0), 0.7, 5.0)))
        assert len(track.headings) == len(track.positions) > 4
        assert all(h == 0.0 for h in track.headings)
        for t in np.linspace(track.times[0], track.times[-1], 23):
            self._assert_pose_is_last_step(track, float(t))
        # Between steps the pose holds the last step's position.
        mid = 0.5 * (track.times[2] + track.times[3])
        assert track.pose_at(mid) == (track.positions[2], 0.0)

    def test_right_angle_turn(self):
        walk = l_shape(Vec2(0, 0), 0.3, leg1=4.0, leg2=4.0)
        track = MotionTracker(assume_right_angle=True).track(_imu_for(walk))
        turn = walk.times[1]
        _pos, before = track.pose_at(turn - 1.0)
        _pos, after = track.pose_at(turn + 1.5)
        assert before == 0.0 and after == pytest.approx(math.pi / 2)
        for t in np.linspace(track.times[0], track.times[-1], 31):
            self._assert_pose_is_last_step(track, float(t))

    def test_before_first_and_after_last_step(self):
        track = MotionTracker().track(_imu_for(straight_walk(
            Vec2(0, 0), 0.0, 4.0)))
        assert track.pose_at(track.times[0] - 5.0) == (Vec2(0.0, 0.0), 0.0)
        assert track.pose_at(track.times[0]) == (Vec2(0.0, 0.0), 0.0)
        assert track.pose_at(track.times[-1] + 5.0) == (
            track.positions[-1], track.headings[-1])
        empty = MotionTracker().track(ImuTrace([]))
        assert empty.pose_at(3.0) == (Vec2(0.0, 0.0), 0.0)

    def test_heading_fusion(self):
        walk = l_shape(Vec2(0, 0), 0.4, leg1=4.0, leg2=4.0)
        imu = _imu_for(walk, seed=11)
        tracker = MotionTracker(use_heading_fusion=True)
        track = tracker.track(imu)
        fused = tracker.heading_filter.relative_heading(imu)
        imu_ts = imu.timestamps()
        for step, heading in zip(track.steps, track.headings[1:]):
            assert heading == float(np.interp(step.time, imu_ts, fused))
        _pos, after = track.pose_at(walk.times[1] + 1.5)
        assert after == pytest.approx(math.pi / 2, abs=0.3)
        for t in np.linspace(track.times[0], track.times[-1], 17):
            self._assert_pose_is_last_step(track, float(t))


class TestReanchoredState:
    def test_maps_through_the_body_frame(self):
        warm = WarmStartState(x=3.0, h=1.0, gamma=-59.0, n=2.0,
                              rss_rmse=1.0).at_pose(5.0, Vec2(2.0, 1.0),
                                                    0.0)
        moved = warm.reanchored(Vec2(-1.0, 4.0), math.pi / 2)
        # One metre ahead of the observer, now facing +y.
        assert (moved.x, moved.h) == pytest.approx((-1.0, 5.0))
        assert (moved.ref_t, moved.ref_x, moved.ref_y) == (5.0, -1.0, 4.0)
        assert moved.ref_heading == math.pi / 2
        assert (moved.gamma, moved.n, moved.rss_rmse) == (-59.0, 2.0, 1.0)

    def test_same_pose_is_identity(self):
        warm = WarmStartState(x=3.25, h=-1.5, gamma=-59.0, n=2.0,
                              rss_rmse=1.0).at_pose(5.0, Vec2(2.0, 1.0), 0.3)
        assert warm.reanchored(Vec2(2.0, 1.0), 0.3) == warm


# -- a sliding-window session over a walk that turns -------------------------

_LEG = 5.5
_WINDOW_S = 8.0
_BEACON = Vec2(3.0, 3.0)


def _u_walk() -> Trajectory:
    return Trajectory(
        [Vec2(0, 0), Vec2(_LEG, 0), Vec2(_LEG, _LEG), Vec2(0, _LEG)],
        [0.0, _LEG / 1.1, 2 * _LEG / 1.1, 3 * _LEG / 1.1])


class _TurningSession:
    """Two solves of one session; the walk turns between window starts.

    Window 1 starts at the walk's start and holds the first turn. Window 2
    starts on the second leg, ``lag_s`` after that turn, so its frame is
    rotated by 90° and shifted along the first leg. The user makes the
    right-angle turn LocBLE asks for (``assume_right_angle``).
    """

    def __init__(self, lag_s: float):
        self.walk = _u_walk()
        self.imu = _imu_for(self.walk, seed=1)
        rng = np.random.default_rng(101)
        ts = np.arange(0.0, self.walk.times[-1], 1.0 / 9.0)
        samples = [RssiSample(
            float(t),
            float(rss_at(self.walk.position_at(t).distance_to(_BEACON),
                         -59.0, 2.0) + rng.normal(0.0, 0.5)),
            "b", 37) for t in ts]
        self.t1 = _WINDOW_S - 0.5
        self.t2 = self.walk.times[1] + lag_s + _WINDOW_S
        self.session = TrackingSession(
            "b",
            SessionConfig(window_s=_WINDOW_S,
                          solve_period_s=self.t2 - self.t1),
            pipeline_factory=lambda: LocBLE(
                sanitize="repair",
                motion_tracker=MotionTracker(assume_right_angle=True)))
        self.session.ingest(samples)

    def solve(self, t):
        pending = self.session.begin_step(t, ImuTick(self.imu, t))
        fit = fit_batch([pending.request], return_exceptions=True)[0]
        self.session.resolve_solve(pending, fit)
        self.session.finish_step(t)
        return pending, fit

    def tick2(self):
        """The IMU as the second solve's tick sees it."""
        return ImuTick(self.imu, self.t2)

    def truth_in_window(self, t):
        """The beacon in the frame of the window that ends at ``t``."""
        t0 = next(s.timestamp for s in self.imu.samples
                  if s.timestamp >= t - _WINDOW_S)
        origin, heading = self.walk.position_at(t0), self.walk.heading_at(t0)
        return (_BEACON - origin).rotated(-heading)


class TestSlidingWindowSession:
    def test_fix_records_pose_at_newest_rss_time(self):
        run = _TurningSession(lag_s=2.0)
        pending, _fit = run.solve(run.t1)
        warm = run.session._warm
        ctx = pending.prepared.ctx
        assert warm.ref_t == ctx.ref_t
        assert warm.ref_t == max(s.timestamp for s in run.session.rss
                                 if s.timestamp <= run.t1)
        pos, heading = ctx.observer_track.pose_at(warm.ref_t)
        assert (warm.ref_x, warm.ref_y, warm.ref_heading) == (
            pos.x, pos.y, heading)

    def test_reanchored_seed_lands_on_the_beacon(self):
        """An exact first fix, carried across the turn: the re-anchored
        seed lands within 0.5 m of the true beacon in the new frame, the
        unshifted seed does not. Any error left is the re-anchoring's."""
        run = _TurningSession(lag_s=2.0)
        run.solve(run.t1)
        exact = run.truth_in_window(run.t1)
        run.session._warm = dataclasses.replace(
            run.session._warm, x=exact.x, h=exact.y)
        pending = run.session.begin_step(run.t2, run.tick2())
        seed = Vec2(pending.request.warm.x, pending.request.warm.h)
        truth = run.truth_in_window(run.t2)
        assert seed.distance_to(truth) < 0.5
        assert exact.distance_to(truth) > 2.0

    def test_reanchored_seed_lands_on_the_new_fit(self):
        """With the real first fix, the re-anchored seed lands within
        0.5 m of where the new window's cold fit lands; the unshifted seed
        does not, and the warm fit is accepted."""
        run = _TurningSession(lag_s=2.0)
        _pending, first = run.solve(run.t1)
        pending = run.session.begin_step(run.t2, run.tick2())
        warm = pending.request.warm
        assert warm.ref_t == run.session._warm.ref_t
        cold = fit_batch([dataclasses.replace(pending.request, warm=None)])[0]
        assert Vec2(warm.x, warm.h).distance_to(cold.position) < 0.5
        assert first.position.distance_to(cold.position) > 2.0
        warm_fit = fit_batch([pending.request])[0]
        assert warm_fit.warm_started

    def test_reference_time_not_covered_seeds_unshifted(self):
        """Window 2 starts after the state's reference time: its track
        holds no pose for it, so the seed goes in as stored."""
        run = _TurningSession(lag_s=3.0)
        run.solve(run.t1)
        stored = run.session._warm
        pending = run.session.begin_step(run.t2, run.tick2())
        assert pending.prepared.ctx.observer_track.times[0] > stored.ref_t
        assert pending.request.warm == stored


class TestCheckpoint:
    def _solved(self):
        run = _TurningSession(lag_s=2.0)
        run.solve(run.t1)
        return run

    def test_pose_fields_round_trip_and_resume_identically(self):
        run = self._solved()
        cp = json.loads(json.dumps(run.session.checkpoint()))
        assert all(cp["warm"][k] is not None for k in _POSE_FIELDS)
        restored = TrackingSession.restore(
            cp, pipeline_factory=run.session._pipeline_factory)
        assert restored._warm == run.session._warm
        want = run.session.begin_step(run.t2, run.tick2()).request.warm
        got = restored.begin_step(run.t2, run.tick2()).request.warm
        assert got == want and got != run.session._warm

    def test_checkpoint_without_pose_seeds_unshifted(self):
        """A checkpoint written before the pose fields existed restores
        with no pose, and its seed goes in unshifted."""
        run = self._solved()
        cp = json.loads(json.dumps(run.session.checkpoint()))
        for key in _POSE_FIELDS:
            del cp["warm"][key]
        restored = TrackingSession.restore(
            cp, pipeline_factory=run.session._pipeline_factory)
        assert all(getattr(restored._warm, k) is None for k in _POSE_FIELDS)
        pending = restored.begin_step(run.t2, run.tick2())
        assert pending.request.warm == restored._warm

    def test_non_finite_pose_seeds_unshifted(self):
        run = self._solved()
        cp = json.loads(json.dumps(run.session.checkpoint()))
        cp["warm"]["ref_heading"] = math.inf
        restored = TrackingSession.restore(
            cp, pipeline_factory=run.session._pipeline_factory)
        pending = restored.begin_step(run.t2, run.tick2())
        assert pending.request.warm == restored._warm
