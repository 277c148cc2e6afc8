"""Timed walking trajectories: waypoint paths, L-shapes, random walks.

A :class:`Trajectory` is the ground-truth motion of a person (observer or
moving target). The simulator samples it for RF geometry; the IMU synthesiser
samples it for gait and turn signatures. The L-shape generator reproduces the
measurement walk LocBLE asks of its user (Sec. 5.1): two straight legs of
3.5–5 m total with a 90° turn.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.types import Vec2, wrap_angle

__all__ = [
    "Trajectory",
    "l_shape",
    "straight_walk",
    "random_waypoint_walk",
    "DEFAULT_WALK_SPEED",
]

#: Typical indoor walking speed (m/s) used when a scenario does not override it.
DEFAULT_WALK_SPEED = 1.1


@dataclass
class Trajectory:
    """Piecewise-linear, constant-speed-per-leg motion through waypoints.

    ``times[i]`` is when the walker reaches ``waypoints[i]``; between
    waypoints, position interpolates linearly. The walker stands still after
    the final waypoint.
    """

    waypoints: List[Vec2]
    times: List[float]

    def __post_init__(self) -> None:
        if len(self.waypoints) != len(self.times):
            raise ConfigurationError("waypoints and times must align")
        if len(self.waypoints) < 1:
            raise ConfigurationError("a trajectory needs at least one waypoint")
        if any(t1 <= t0 for t0, t1 in zip(self.times, self.times[1:])):
            raise ConfigurationError("times must be strictly increasing")

    @property
    def start(self) -> Vec2:
        return self.waypoints[0]

    @property
    def end(self) -> Vec2:
        return self.waypoints[-1]

    @property
    def duration(self) -> float:
        return self.times[-1] - self.times[0]

    def total_length(self) -> float:
        return sum(
            a.distance_to(b) for a, b in zip(self.waypoints, self.waypoints[1:])
        )

    def position_at(self, t: float) -> Vec2:
        """Ground-truth position at time ``t`` (clamped to the ends)."""
        if t <= self.times[0]:
            return self.waypoints[0]
        if t >= self.times[-1]:
            return self.waypoints[-1]
        i = bisect_right(self.times, t) - 1
        t0, t1 = self.times[i], self.times[i + 1]
        frac = (t - t0) / (t1 - t0)
        a, b = self.waypoints[i], self.waypoints[i + 1]
        return a + (b - a) * frac

    def heading_at(self, t: float) -> float:
        """Walking direction (radians from +x) at time ``t``.

        Before the start / after the end, the first / last leg's heading is
        reported (a standing person keeps facing where they walked).
        """
        if len(self.waypoints) == 1:
            return 0.0
        if t <= self.times[0]:
            i = 0
        elif t >= self.times[-1]:
            i = len(self.waypoints) - 2
        else:
            i = bisect_right(self.times, t) - 1
            i = min(i, len(self.waypoints) - 2)
        leg = self.waypoints[i + 1] - self.waypoints[i]
        return leg.heading()

    def legs(self) -> List[Tuple[Vec2, Vec2, float, float]]:
        """(start, end, t_start, t_end) for each straight leg."""
        return [
            (a, b, t0, t1)
            for a, b, t0, t1 in zip(
                self.waypoints, self.waypoints[1:], self.times, self.times[1:]
            )
        ]

    def turn_times(self, min_angle_rad: float = math.radians(20.0)) -> List[float]:
        """Times of direction changes of at least ``min_angle_rad``."""
        out = []
        for i in range(1, len(self.waypoints) - 1):
            h0 = (self.waypoints[i] - self.waypoints[i - 1]).heading()
            h1 = (self.waypoints[i + 1] - self.waypoints[i]).heading()
            if abs(wrap_angle(h1 - h0)) >= min_angle_rad:
                out.append(self.times[i])
        return out

    def displacement_in_frame(self, t: float) -> Vec2:
        """Displacement from the start, in the measurement frame.

        The measurement frame (Fig. 6) has its origin at the walk's start and
        its +x axis along the initial walking direction, so every estimate the
        library produces lives in this frame.
        """
        h0 = self.heading_at(self.times[0])
        d = self.position_at(t) - self.start
        return d.rotated(-h0)

    def to_frame(self, p: Vec2) -> Vec2:
        """Transform a world point into the measurement frame."""
        h0 = self.heading_at(self.times[0])
        return (p - self.start).rotated(-h0)

    def from_frame(self, p: Vec2) -> Vec2:
        """Transform a measurement-frame point back into world coordinates."""
        h0 = self.heading_at(self.times[0])
        return self.start + p.rotated(h0)


def _timed(waypoints: Sequence[Vec2], speed: float, t0: float) -> Trajectory:
    if speed <= 0:
        raise ConfigurationError("speed must be positive")
    times = [t0]
    for a, b in zip(waypoints, waypoints[1:]):
        times.append(times[-1] + a.distance_to(b) / speed)
    return Trajectory(list(waypoints), times)


def l_shape(
    start: Vec2,
    heading_rad: float,
    leg1: float = 2.5,
    leg2: float = 2.0,
    turn_rad: float = math.radians(90.0),
    speed: float = DEFAULT_WALK_SPEED,
    t0: float = 0.0,
) -> Trajectory:
    """The paper's L-shaped measurement walk (Sec. 5.1).

    Leg 1 goes ``leg1`` metres along ``heading_rad``; the walker then turns by
    ``turn_rad`` (positive = counter-clockwise; the default is the right-angle
    turn LocBLE asks for) and walks ``leg2`` metres. Total defaults to 4.5 m,
    inside the 3.5–5 m band of Sec. 7.6.2.
    """
    if leg1 <= 0 or leg2 <= 0:
        raise ConfigurationError("leg lengths must be positive")
    p1 = start + Vec2.from_polar(leg1, heading_rad)
    p2 = p1 + Vec2.from_polar(leg2, heading_rad + turn_rad)
    return _timed([start, p1, p2], speed, t0)


def straight_walk(
    start: Vec2,
    heading_rad: float,
    length: float,
    speed: float = DEFAULT_WALK_SPEED,
    t0: float = 0.0,
) -> Trajectory:
    """A single straight leg (the symmetric-ambiguity case of Sec. 5.1)."""
    if length <= 0:
        raise ConfigurationError("length must be positive")
    return _timed([start, start + Vec2.from_polar(length, heading_rad)], speed, t0)


def random_waypoint_walk(
    start: Vec2,
    n_legs: int,
    rng: np.random.Generator,
    leg_range: Tuple[float, float] = (1.5, 4.0),
    bounds: Optional[Tuple[float, float]] = None,
    speed: float = DEFAULT_WALK_SPEED,
    t0: float = 0.0,
) -> Trajectory:
    """A random multi-leg walk (moving-target experiments, Sec. 7.4.2).

    Headings are uniform; legs that would exit ``bounds`` (width, height of
    the floorplan) are re-drawn, up to a resampling limit.
    """
    if n_legs < 1:
        raise ConfigurationError("need at least one leg")
    pts = [start]
    for _ in range(n_legs):
        for _attempt in range(64):
            length = rng.uniform(*leg_range)
            heading = rng.uniform(-math.pi, math.pi)
            nxt = pts[-1] + Vec2.from_polar(length, heading)
            if bounds is None or (0 <= nxt.x <= bounds[0] and 0 <= nxt.y <= bounds[1]):
                pts.append(nxt)
                break
        else:
            raise ConfigurationError(
                "could not place a leg inside the bounds; enlarge the floorplan"
            )
    return _timed(pts, speed, t0)
