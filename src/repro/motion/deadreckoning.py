"""Pedestrian dead reckoning: steps + turns → a 2-D displacement track.

Combines the step detector, the frequency-based step-length model and the
turn detector into the observer-motion estimate the location estimator fuses
with RSS (Sec. 5.2). All output lives in the *measurement frame*: origin at
the walk's start, +x along the initial walking direction — exactly the
coordinate system of the paper's Fig. 6.

``assume_right_angle`` implements the paper's practical refinement: "LocBLE
can avoid the turning angle measurement step by explicitly asking the user
to make a right angle (90°) turn" — detected turn angles snap to ±90°.

``use_heading_fusion`` switches the heading source from discrete detected
turns to the continuous gyro+magnetometer complementary filter
(:mod:`repro.motion.headingfusion`) — smoother on meandering walks, at the
cost of magnetometer disturbance leaking into straight legs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.motion.headingfusion import ComplementaryHeadingFilter
from repro.motion.stepcounter import DetectedStep, StepDetector
from repro.motion.steplength import StepLengthModel
from repro.motion.turndetector import DetectedTurn, TurnDetector
from repro.types import ImuTrace, Vec2

__all__ = ["MotionTrack", "MotionTracker", "TrackMemo"]

#: A step's length comes from the local step frequency over this many
#: inter-step intervals around it.
FREQ_WINDOW = 3


@dataclass
class MotionTrack:
    """The dead-reckoned path: positions keyed by time, plus raw detections.

    ``headings[i]`` is the walking direction of the step that ended at
    ``positions[i]``; the origin's is 0, the frame's +x axis.
    """

    times: List[float]
    positions: List[Vec2]
    steps: List[DetectedStep]
    turns: List[DetectedTurn]
    headings: List[float] = field(default_factory=list)

    def displacement_at(self, t: float) -> Vec2:
        """Measurement-frame displacement at time ``t`` (interpolated)."""
        if not self.times or t <= self.times[0]:
            return Vec2(0.0, 0.0)
        if t >= self.times[-1]:
            return self.positions[-1]
        i = bisect_right(self.times, t) - 1
        t0, t1 = self.times[i], self.times[i + 1]
        frac = (t - t0) / (t1 - t0)
        a, b = self.positions[i], self.positions[i + 1]
        return a + (b - a) * frac

    def displacements_at(self, ts: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`displacement_at`: an ``(n, 2)`` array.

        ``np.interp`` clamps at both ends exactly like the scalar method —
        the first position is the origin and queries past the last step hold
        the end position.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.zeros((ts.size, 2))
        if not self.times or ts.size == 0:
            return out
        t = np.asarray(self.times, dtype=float)
        xs = np.array([pos.x for pos in self.positions], dtype=float)
        ys = np.array([pos.y for pos in self.positions], dtype=float)
        out[:, 0] = np.interp(ts, t, xs)
        out[:, 1] = np.interp(ts, t, ys)
        return out

    def pose_at(self, t: float) -> Tuple[Vec2, float]:
        """Position and heading of the last step at or before ``t``.

        Before the first step that is the origin, heading 0; past the last
        step it is the last step's pose.
        """
        if not self.positions:
            return Vec2(0.0, 0.0), 0.0
        i = max(bisect_right(self.times, t) - 1, 0)
        return self.positions[i], self.headings[i]

    def total_distance(self) -> float:
        return sum(
            a.distance_to(b) for a, b in zip(self.positions, self.positions[1:])
        )

    @property
    def end_position(self) -> Vec2:
        return self.positions[-1] if self.positions else Vec2(0.0, 0.0)


@dataclass
class MotionTracker:
    """Turns an IMU trace into a measurement-frame motion track."""

    step_detector: StepDetector = field(default_factory=StepDetector)
    turn_detector: TurnDetector = field(default_factory=TurnDetector)
    step_length_model: StepLengthModel = field(default_factory=StepLengthModel)
    assume_right_angle: bool = False
    use_heading_fusion: bool = False
    heading_filter: ComplementaryHeadingFilter = field(
        default_factory=ComplementaryHeadingFilter)

    def track(self, trace: ImuTrace) -> MotionTrack:
        """Dead-reckon the walk recorded in ``trace``."""
        steps = self.step_detector.detect(trace)
        turns = self.turn_detector.detect(trace)
        if self.assume_right_angle:
            turns = [
                DetectedTurn(
                    u.t_begin, u.t_end, math.copysign(math.pi / 2.0, u.angle_rad)
                )
                for u in turns
            ]

        t_start = trace.samples[0].timestamp if len(trace) else 0.0
        times: List[float] = [t_start]
        positions: List[Vec2] = [Vec2(0.0, 0.0)]
        heading = 0.0
        headings: List[float] = [heading]
        turn_idx = 0
        step_times = [s.time for s in steps]
        fused_heading = None
        if self.use_heading_fusion and len(trace) > 1:
            fused_heading = self.heading_filter.relative_heading(trace)
            imu_ts = trace.timestamps()
        for i, step in enumerate(steps):
            if fused_heading is not None:
                heading = float(np.interp(step.time, imu_ts, fused_heading))
            else:
                # Apply any turns completed before this step lands.
                while (turn_idx < len(turns)
                       and turns[turn_idx].t_mid <= step.time):
                    heading += turns[turn_idx].angle_rad
                    turn_idx += 1
            length = self._step_length(step_times, i)
            positions.append(positions[-1] + Vec2.from_polar(length, heading))
            headings.append(heading)
            times.append(step.time)
        return MotionTrack(times=times, positions=positions, steps=steps,
                           turns=turns, headings=headings)

    def _step_length(self, step_times: List[float], i: int) -> float:
        """Local-frequency step length for the i-th step (cf. steplength.py)."""
        if len(step_times) < 2:
            return self.step_length_model.length_for_frequency(1.8)
        lo = max(0, i - FREQ_WINDOW)
        if i == lo:  # first step: look forwards instead
            hi = min(len(step_times) - 1, i + FREQ_WINDOW)
            span = step_times[hi] - step_times[i]
            n = hi - i
        else:
            span = step_times[i] - step_times[lo]
            n = i - lo
        freq = n / span if span > 0 else 1.8
        return self.step_length_model.length_for_frequency(freq)


class TrackMemo:
    """Shares :meth:`MotionTracker.track` results between callers.

    A track is reused only for the *same* :class:`~repro.types.ImuTrace`
    object and an equal tracker configuration (dataclass equality), so
    callers that slice their own windows never share by accident. The memo
    keeps every window it has seen alive: hold one for a bounded scope —
    the streaming service keeps one per tick. Consumers must treat the
    returned :class:`MotionTrack` as read-only.
    """

    def __init__(self) -> None:
        self._entries: List[tuple] = []

    def track(self, tracker: MotionTracker, trace: ImuTrace) -> MotionTrack:
        """``tracker.track(trace)``, computed once per (trace, config)."""
        for seen_trace, seen_tracker, track in self._entries:
            if seen_trace is trace and seen_tracker == tracker:
                return track
        track = tracker.track(trace)
        self._entries.append((trace, tracker, track))
        return track
