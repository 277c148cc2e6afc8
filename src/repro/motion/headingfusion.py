"""Continuous heading estimation: gyro + magnetometer complementary filter.

The turn detector reads heading only around turn bumps; some applications
(continuous tracking, smoother dead reckoning) want a heading estimate at
every IMU sample. The standard complementary filter integrates the
gyroscope (smooth, drifts) and pulls toward the magnetometer (noisy,
absolute) with a small gain — each sensor covering the other's weakness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.types import ImuTrace, wrap_angle

__all__ = ["ComplementaryHeadingFilter"]


@dataclass
class ComplementaryHeadingFilter:
    """First-order complementary filter over yaw.

    ``mag_time_constant_s`` sets how fast magnetometer evidence corrects
    gyro drift: the crossover frequency is ``1 / (2 pi tau)``. 2–4 s keeps
    short-term gyro smoothness while bounding drift to the magnetometer's
    accuracy.
    """

    mag_time_constant_s: float = 3.0

    def __post_init__(self) -> None:
        if self.mag_time_constant_s <= 0:
            raise ConfigurationError("mag_time_constant_s must be positive")

    def filter(self, trace: ImuTrace) -> np.ndarray:
        """Fused heading (rad, wrapped) at every IMU sample."""
        if len(trace) == 0:
            return np.array([])
        ts = trace.timestamps()
        gyro = trace.gyro_z()
        mag = trace.mag_heading()

        fused = np.empty(len(ts))
        fused[0] = mag[0]
        for i in range(1, len(ts)):
            dt = ts[i] - ts[i - 1]
            if dt <= 0:
                fused[i] = fused[i - 1]
                continue
            predicted = fused[i - 1] + gyro[i] * dt
            alpha = dt / (self.mag_time_constant_s + dt)
            error = wrap_angle(mag[i] - predicted)
            fused[i] = wrap_angle(predicted + alpha * error)
        return fused

    def relative_heading(self, trace: ImuTrace) -> np.ndarray:
        """Heading relative to the walk's start (measurement-frame yaw)."""
        fused = self.filter(trace)
        if fused.size == 0:
            return fused
        return np.array([wrap_angle(h - fused[0]) for h in fused])
