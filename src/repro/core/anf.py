"""Adaptive noise filtering (ANF): Butterworth + adaptive Kalman (Sec. 4.2).

Raw BLE RSS jitters with fast fading; a 6th-order Butterworth low-pass
removes the jitter but, being causal and high-order, lags the true trend —
visible as the delayed curve in the paper's Fig. 4. The AKF stage fuses the
raw readings back in, riding the Butterworth trend while staying responsive
(the "BF + AKF" curve hugging the theoretical one).

Both stages can be disabled independently for the Fig. 4/5 ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import perf
from repro.errors import ConfigurationError, DataQualityError
from repro.filters.butterworth import ButterworthLowPass
from repro.filters.kalman import adaptive_kalman_fuse
from repro.filters.smoothing import moving_average
from repro.robustness.sanitize import check_trace, robust_rate_hz
from repro.types import RssiTrace

__all__ = ["AdaptiveNoiseFilter"]

#: Below this many samples the Butterworth warm-up dominates; pass through.
_MIN_FILTER_SAMPLES = 6


@dataclass
class AdaptiveNoiseFilter:
    """The paper's ANF: a fixed design applied per measurement trace."""

    order: int = 6
    cutoff_hz: float = 0.8
    use_butterworth: bool = True
    use_akf: bool = True
    akf_process_var: float = 0.05
    akf_measurement_var: float = 9.0

    def __post_init__(self) -> None:
        if not self.cutoff_hz > 0:  # also refuses NaN
            raise ConfigurationError("cutoff_hz must be positive")

    @perf.profiled("anf.AdaptiveNoiseFilter.apply")
    def apply(self, values: Sequence[float], fs_hz: float) -> np.ndarray:
        """Filter one RSS value sequence sampled near ``fs_hz``.

        The Butterworth cutoff is capped below Nyquist for low sampling
        rates (the Fig. 13a sweep goes down to 5.5 Hz). Both stages are
        recursive, so one non-finite reading would poison every output
        after it; such input raises :class:`~repro.errors.DataQualityError`
        naming the first bad index instead.
        """
        values = np.asarray(values, dtype=float)
        if values.size < _MIN_FILTER_SAMPLES:
            return values.copy()
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise DataQualityError(
                f"filter input has a non-finite RSSI value at index {bad} "
                f"({float(values.flat[bad])}); sanitize the trace before filtering"
            )
        if not np.isfinite(fs_hz) or fs_hz <= 0:
            raise ConfigurationError("fs_hz must be positive and finite")

        smoothed = values
        if self.use_butterworth:
            cutoff = min(self.cutoff_hz, 0.4 * fs_hz)
            # The 6th-order design needs a few cutoff periods of signal to
            # be worth its group delay; on shorter segments (e.g. right
            # after a regression restart) fall back to a moving average.
            if values.size >= 3.0 * fs_hz / cutoff:
                bf = ButterworthLowPass(
                    order=self.order, cutoff_hz=cutoff, fs_hz=fs_hz
                )
                smoothed = bf.apply(values)
            else:
                window = max(3, int(round(fs_hz / (2.0 * cutoff))))
                smoothed = moving_average(values, window)
        if self.use_akf:
            if self.use_butterworth:
                return adaptive_kalman_fuse(
                    values,
                    smoothed,
                    process_var=self.akf_process_var,
                    initial_measurement_var=self.akf_measurement_var,
                )
            # AKF without a trend input degenerates to an adaptive scalar KF.
            return adaptive_kalman_fuse(
                values,
                values * 0.0,
                process_var=self.akf_process_var,
                initial_measurement_var=self.akf_measurement_var,
            )
        return smoothed

    def apply_trace(self, trace: RssiTrace) -> RssiTrace:
        """Convenience: filter a trace in place of its RSSI values.

        The filter design needs the trace's sampling rate, derived from the
        median inter-arrival time (:func:`repro.robustness.robust_rate_hz`)
        so dropout gaps and coalesced duplicates cannot skew it. A trace
        from which no rate can be derived (all timestamps identical), or one
        with unsorted/non-finite data, raises a
        :class:`~repro.errors.DataQualityError` instead of being filtered
        with a made-up rate.
        """
        if len(trace) < _MIN_FILTER_SAMPLES:
            return RssiTrace(list(trace.samples))
        check_trace(trace, context="filter input trace")
        fs = robust_rate_hz(trace.timestamps())
        if fs <= 0:
            raise DataQualityError(
                "cannot derive a sampling rate: trace timestamps span zero "
                "duration; sanitize the log or pass values to apply() with "
                "an explicit fs_hz"
            )
        filtered = self.apply(trace.values(), fs)
        return RssiTrace.from_arrays(
            trace.timestamps(),
            filtered,
            beacon_id=trace.beacon_id,
            channels=[s.channel for s in trace.samples],
        )
