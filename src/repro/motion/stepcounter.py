"""Step detection from accelerometer magnitude (Sec. 5.2.1).

The paper's recipe: smooth the accelerometer data with a moving-average
filter, then use "a voting algorithm to detect the peak, which represents
the middle status of one gait cycle". Our voting peak detector declares a
step at sample *i* when:

* it is the maximum within a ±``vote_radius`` neighbourhood (the vote),
* it rises above an adaptive amplitude threshold (a fraction of the smoothed
  signal's recent dynamic range, so hand tremor does not count), and
* at least ``min_step_interval_s`` has passed since the previous step
  (humans do not step faster than ~3.3 Hz).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigurationError
from repro.filters.smoothing import moving_average
from repro.types import ImuTrace

__all__ = ["StepDetector", "DetectedStep"]


@dataclass(frozen=True)
class DetectedStep:
    """One detected step: when it peaked and how strong the peak was."""

    time: float
    amplitude: float


@dataclass
class StepDetector:
    """Moving-average + voting peak step detector."""

    smooth_window: int = 7
    vote_radius: int = 8
    min_step_interval_s: float = 0.3
    threshold_fraction: float = 0.35
    min_amplitude_g: float = 0.06

    def __post_init__(self) -> None:
        if self.vote_radius < 1:
            raise ConfigurationError("vote_radius must be >= 1")
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ConfigurationError("threshold_fraction must be in (0, 1)")

    def detect(self, trace: ImuTrace) -> List[DetectedStep]:
        """Detected steps, time-ordered."""
        if len(trace) < 2 * self.vote_radius + 1:
            return []
        ts = trace.timestamps()
        smoothed = moving_average(trace.accel(), self.smooth_window)

        # Adaptive amplitude gate from the signal's positive excursions.
        positive = smoothed[smoothed > 0]
        if positive.size == 0:
            return []
        gate = max(
            self.min_amplitude_g,
            self.threshold_fraction * float(np.percentile(positive, 90)),
        )

        # The vote over every ±r neighbourhood at once: the centre must be
        # the neighbourhood max, first index on ties. Written as negated
        # ``<`` tests, a NaN centre passes the gate and the max (which a
        # NaN anywhere in the neighbourhood makes NaN), and ``argmax``
        # picks the first NaN, exactly as the per-sample scan did.
        r = self.vote_radius
        hoods = sliding_window_view(smoothed, 2 * r + 1)
        centre = smoothed[r:len(smoothed) - r]
        voted = (~(centre < gate) & ~(centre < hoods.max(axis=1))
                 & (hoods.argmax(axis=1) == r))

        steps: List[DetectedStep] = []
        last_t = -np.inf
        for i in np.flatnonzero(voted) + r:
            if ts[i] - last_t < self.min_step_interval_s:
                continue
            steps.append(DetectedStep(float(ts[i]), float(smoothed[i])))
            last_t = ts[i]
        return steps

    def count(self, trace: ImuTrace) -> int:
        return len(self.detect(trace))
