"""Magnetometer heading synthesis.

Indoor magnetic headings wander (steel, wiring) but are *locally* stable —
"the magnetic field reading is known to fluctuate in indoor environments,
but it is accurate over a short period time" (Sec. 5.2.2). We model the
reported heading as the true walking heading plus a slowly varying bounded
random-walk disturbance plus white noise, with heading transitions through
turns smoothed over the turn duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.types import wrap_angle

__all__ = ["MagnetometerModel"]


@dataclass
class MagnetometerModel:
    """Synthesises the magnetic-heading signal (radians)."""

    rng: np.random.Generator
    noise_std_rad: float = math.radians(2.0)
    drift_std_rad: float = math.radians(0.3)   # per-sample random-walk step
    drift_bound_rad: float = math.radians(8.0)  # indoor disturbance cap
    declination_rad: float = 0.0

    def synthesize(self, timestamps: np.ndarray,
                   true_heading: np.ndarray) -> np.ndarray:
        """Reported heading for each sample, wrapped to (-pi, pi]."""
        timestamps = np.asarray(timestamps, dtype=float)
        true_heading = np.asarray(true_heading, dtype=float)
        if timestamps.shape != true_heading.shape:
            raise ConfigurationError("timestamps and headings must align")
        n = len(timestamps)
        drift = np.empty(n)
        d = float(self.rng.uniform(-self.drift_bound_rad / 2, self.drift_bound_rad / 2))
        for i in range(n):
            d += float(self.rng.normal(0.0, self.drift_std_rad))
            d = max(-self.drift_bound_rad, min(self.drift_bound_rad, d))
            drift[i] = d
        noisy = (
            true_heading
            + self.declination_rad
            + drift
            + self.rng.normal(0.0, self.noise_std_rad, size=n)
        )
        return np.array([wrap_angle(h) for h in noisy])


def smooth_heading_through_turns(
    timestamps: np.ndarray,
    raw_heading: np.ndarray,
    turn_times: np.ndarray,
    turn_duration_s: float = 0.9,
) -> np.ndarray:
    """Replace step-function heading changes with smooth turn transitions.

    Piecewise-linear trajectories change heading instantaneously at a
    waypoint; a human body does not. Within ``turn_duration_s`` around each
    turn time we interpolate the heading with a raised-cosine ramp so the
    synthetic magnetometer matches a real turn profile.
    """
    timestamps = np.asarray(timestamps, dtype=float)
    heading = np.asarray(raw_heading, dtype=float).copy()
    for tt in np.atleast_1d(turn_times):
        t0, t1 = tt - turn_duration_s / 2.0, tt + turn_duration_s / 2.0
        before = heading[timestamps < t0]
        after = heading[timestamps > t1]
        if len(before) == 0 or len(after) == 0:
            continue
        h0, h1 = before[-1], after[0]
        delta = wrap_angle(h1 - h0)
        mask = (timestamps >= t0) & (timestamps <= t1)
        u = (timestamps[mask] - t0) / (t1 - t0)
        ramp = (1.0 - np.cos(math.pi * u)) / 2.0
        heading[mask] = np.array([wrap_angle(h0 + delta * r) for r in ramp])
    return heading
