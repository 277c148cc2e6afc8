"""Combined IMU trace synthesis for a walking trajectory.

:class:`ImuSynthesizer` turns a ground-truth :class:`~repro.world.trajectory.
Trajectory` into the earth-frame IMU stream the motion tracker consumes:
user-acceleration magnitude (gait), yaw rate (turn bumps) and magnetic
heading — sampled at a phone-realistic 50–100 Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.imu.gait import GaitModel, step_frequency_for_speed
from repro.imu.gyro import GyroModel, TurnEvent
from repro.imu.magnetometer import MagnetometerModel, smooth_heading_through_turns
from repro.types import ImuSample, ImuTrace, wrap_angle
from repro.world.trajectory import Trajectory

__all__ = ["ImuSynthesizer", "SynthesizedImu"]


@dataclass
class SynthesizedImu:
    """An IMU trace together with its motion ground truth."""

    trace: ImuTrace
    true_step_times: List[float]
    true_turns: List[TurnEvent]


@dataclass
class ImuSynthesizer:
    """Generates the IMU stream for one walker."""

    rng: np.random.Generator
    rate_hz: float = 50.0
    turn_duration_s: float = 0.9
    gait: GaitModel = field(default=None)
    gyro: GyroModel = field(default=None)
    mag: MagnetometerModel = field(default=None)

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ConfigurationError("rate_hz must be positive")
        if self.gait is None:
            self.gait = GaitModel(self.rng)
        if self.gyro is None:
            self.gyro = GyroModel(self.rng)
        if self.mag is None:
            self.mag = MagnetometerModel(self.rng)

    def synthesize(
        self, trajectory: Trajectory, t_pad_s: float = 0.5
    ) -> SynthesizedImu:
        """IMU stream covering the trajectory plus ``t_pad_s`` at both ends."""
        t0 = trajectory.times[0] - t_pad_s
        t1 = trajectory.times[-1] + t_pad_s
        n = max(2, int(round((t1 - t0) * self.rate_hz)) + 1)
        ts = np.linspace(t0, t1, n)

        walking = np.array(
            [trajectory.times[0] <= t <= trajectory.times[-1] for t in ts]
        )
        speeds = self._speeds_at(trajectory, ts)
        step_freq = np.array(
            [step_frequency_for_speed(s) if s > 0 else 0.0 for s in speeds]
        )
        walking &= speeds > 1e-6

        accel, step_times = self.gait.synthesize(ts, walking, step_freq)

        turns = self._turn_events(trajectory)
        gyro_z = self.gyro.synthesize(ts, turns, walking)

        true_heading = np.array([trajectory.heading_at(t) for t in ts])
        true_heading = smooth_heading_through_turns(
            ts, true_heading, np.array([tn.time for tn in turns]), self.turn_duration_s
        )
        mag_heading = self.mag.synthesize(ts, true_heading)

        samples = [
            ImuSample(float(t), float(a), float(g), float(m))
            for t, a, g, m in zip(ts, accel, gyro_z, mag_heading)
        ]
        return SynthesizedImu(ImuTrace(samples), step_times, turns)

    def _speeds_at(self, trajectory: Trajectory, ts: np.ndarray) -> np.ndarray:
        speeds = np.zeros(len(ts))
        for a, b, t_start, t_end in trajectory.legs():
            v = a.distance_to(b) / (t_end - t_start)
            mask = (ts >= t_start) & (ts <= t_end)
            speeds[mask] = v
        return speeds

    def _turn_events(self, trajectory: Trajectory) -> List[TurnEvent]:
        events = []
        for i in range(1, len(trajectory.waypoints) - 1):
            h0 = (trajectory.waypoints[i] - trajectory.waypoints[i - 1]).heading()
            h1 = (trajectory.waypoints[i + 1] - trajectory.waypoints[i]).heading()
            angle = wrap_angle(h1 - h0)
            if abs(angle) >= math.radians(15.0):
                events.append(
                    TurnEvent(trajectory.times[i], angle, self.turn_duration_s)
                )
        return events
