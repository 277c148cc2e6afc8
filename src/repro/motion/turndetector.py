"""Turn detection: gyroscope bump + magnetic-heading difference (Sec. 5.2.2).

"To identify turning behavior, our turn detector inspects gyroscope readings
to identify the bump caused by the turning behavior. Our algorithm can
accurately track the beginning and ending points of a bump. Then, we find
the corresponding points in the magnetic heading to get the turning angle."

We find contiguous runs where the smoothed |yaw rate| exceeds a threshold
(with hysteresis to bridge mid-bump dips) and read the turn angle as the
difference between magnetic headings averaged in short windows just before
and just after the bump — the magnetometer is "accurate over a short period
of time" even indoors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.filters.smoothing import moving_average
from repro.types import ImuTrace, wrap_angle

__all__ = ["TurnDetector", "DetectedTurn"]


@dataclass(frozen=True)
class DetectedTurn:
    """One detected turn with its begin/end times and signed angle (rad)."""

    t_begin: float
    t_end: float
    angle_rad: float

    @property
    def t_mid(self) -> float:
        return (self.t_begin + self.t_end) / 2.0


@dataclass
class TurnDetector:
    """Gyro-bump turn detector with magnetic-heading angle readout."""

    smooth_window: int = 5
    rate_threshold_rad_s: float = 0.45
    release_threshold_rad_s: float = 0.2
    min_duration_s: float = 0.25
    heading_window_s: float = 0.4
    min_angle_rad: float = math.radians(15.0)

    def __post_init__(self) -> None:
        if self.release_threshold_rad_s > self.rate_threshold_rad_s:
            raise ConfigurationError("release threshold must not exceed onset")

    def detect(self, trace: ImuTrace) -> List[DetectedTurn]:
        """Detected turns, time-ordered."""
        if len(trace) < 5:
            return []
        ts = trace.timestamps()
        rate = moving_average(trace.gyro_z(), self.smooth_window)
        heading = trace.mag_heading()

        # A bump opens at the first onset sample and closes at the first
        # release sample after it; the next one opens after that. A NaN
        # rate is neither (both tests are False), and a bump still open at
        # the end closes on the last sample.
        speed = np.abs(rate)
        onsets = np.flatnonzero(speed >= self.rate_threshold_rad_s)
        releases = np.flatnonzero(speed < self.release_threshold_rad_s)
        turns: List[DetectedTurn] = []
        k = 0
        while k < onsets.size:
            start_idx = int(onsets[k])
            j = np.searchsorted(releases, start_idx, side="right")
            if j == releases.size:
                self._finish_bump(ts, heading, start_idx, len(ts) - 1, turns)
                break
            end_idx = int(releases[j])
            self._finish_bump(ts, heading, start_idx, end_idx, turns)
            k = np.searchsorted(onsets, end_idx, side="right")
        return turns

    def _finish_bump(
        self,
        ts: np.ndarray,
        heading: np.ndarray,
        start_idx: int,
        end_idx: int,
        turns: List[DetectedTurn],
    ) -> None:
        t0, t1 = ts[start_idx], ts[end_idx]
        if t1 - t0 < self.min_duration_s:
            return
        before = heading[(ts >= t0 - self.heading_window_s) & (ts < t0)]
        after = heading[(ts > t1) & (ts <= t1 + self.heading_window_s)]
        if before.size == 0 or after.size == 0:
            return
        angle = wrap_angle(_circular_mean(after) - _circular_mean(before))
        if abs(angle) < self.min_angle_rad:
            return
        turns.append(DetectedTurn(float(t0), float(t1), float(angle)))


def _circular_mean(angles: np.ndarray) -> float:
    """Mean of angles, safe at the ±pi wrap point.

    ``sum() / size`` is ``np.mean``'s own arithmetic on a 1-D array,
    without its per-call overhead.
    """
    return float(math.atan2(np.sin(angles).sum() / angles.size,
                            np.cos(angles).sum() / angles.size))
