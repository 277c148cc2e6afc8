"""Scalar Kalman filtering and the paper's adaptive Kalman filter (AKF).

The ANF's second stage "enhances the responsiveness of the filter by fusing
raw RSS readings with BF output" (Sec. 4.2). Our AKF realises that fusion:

* the *prediction* step propagates the state along the Butterworth output's
  local trend (the BF knows where the smoothed signal is heading, minus its
  group delay);
* the *update* step corrects with the raw RSS reading;
* the measurement-noise variance ``R`` adapts online from the innovation
  sequence (the standard innovation-based adaptive estimation), so the filter
  trusts raw data more when the channel is calm and leans on the trend when
  raw readings get wild.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ScalarKalman", "AdaptiveKalman", "AkfState", "adaptive_kalman_fuse"]


def _numpy_sum(xs: List[float]) -> float:
    """``np.add.reduce`` of a float64 vector, bit for bit, on Python floats.

    NumPy's pairwise summation adds a block of up to 128 elements with a
    plain loop below 8 elements and eight interleaved accumulators from 8
    up (longer vectors split in halves), then adds the result to the
    reduction's initial 0.0. Keeping that order lets
    :class:`AdaptiveKalman` take its window statistics on floats and
    still match ``np.mean``/``np.std`` exactly.
    """
    n = len(xs)
    if n < 8:
        total = 0.0
        for v in xs:
            total += v
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _numpy_sum(xs[:half]) + _numpy_sum(xs[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = xs[:8]
    m = n - n % 8
    for i in range(8, m, 8):
        r0 += xs[i]
        r1 += xs[i + 1]
        r2 += xs[i + 2]
        r3 += xs[i + 3]
        r4 += xs[i + 4]
        r5 += xs[i + 5]
        r6 += xs[i + 6]
        r7 += xs[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for v in xs[m:]:
        total += v
    return 0.0 + total


@dataclass
class ScalarKalman:
    """Textbook one-dimensional Kalman filter (random-walk state model)."""

    process_var: float
    measurement_var: float
    x: float = 0.0
    p: float = 1.0
    _initialized: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        # process_var == 0 is a legitimate static-level model; only the
        # measurement variance must be strictly positive (it divides the
        # gain). Non-finite values would propagate NaN through every step.
        if not (math.isfinite(self.process_var)
                and math.isfinite(self.measurement_var)):
            raise ConfigurationError("variances must be finite")
        if self.process_var < 0 or self.measurement_var <= 0:
            raise ConfigurationError(
                "process variance must be >= 0 and measurement variance > 0"
            )

    def step(self, z: float, control: float = 0.0) -> float:
        """Predict (with optional control/trend input) then update with ``z``."""
        if not self._initialized:
            self.x = z
            self.p = self.measurement_var
            self._initialized = True
            return self.x
        # Predict.
        self.x += control
        self.p += self.process_var
        # Update.
        k = self.p / (self.p + self.measurement_var)
        self.x += k * (z - self.x)
        self.p *= 1.0 - k
        return self.x

    def filter(self, zs: Sequence[float]) -> np.ndarray:
        return np.array([self.step(z) for z in zs])


@dataclass
class AdaptiveKalman:
    """Innovation-adaptive scalar Kalman filter.

    Two adaptations run over a sliding window of innovations:

    * ``R`` is re-estimated as ``mean(innovation²) − P_prior`` (clamped) —
      no hand-tuned measurement variance survives a change in channel
      conditions;
    * with ``bias_gating`` on, the Kalman gain is additionally scaled by
      the *significance of the innovation mean*: zero-mean innovations mean
      the trend input is already tracking (ride it, stay smooth), while
      persistently one-sided innovations mean the smoothed trend is lagging
      a real level change — exactly the Butterworth-delay failure the
      paper's AKF exists to fix — so the raw correction opens up.
    """

    process_var: float = 0.05
    initial_measurement_var: float = 4.0
    window: int = 12
    bias_gating: bool = True
    x: float = 0.0
    p: float = 1.0
    _r: float = field(default=0.0, init=False)
    _innovations: list = field(default_factory=list, init=False)
    _initialized: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.process_var)
                and math.isfinite(self.initial_measurement_var)):
            raise ConfigurationError("variances must be finite")
        if self.process_var < 0 or self.initial_measurement_var <= 0:
            raise ConfigurationError(
                "process variance must be >= 0 and measurement variance > 0"
            )
        if self.window < 2:
            raise ConfigurationError("window must be >= 2")
        self._r = self.initial_measurement_var

    def step(self, z: float, control: float = 0.0) -> float:
        if not self._initialized:
            self.x = z
            self.p = self._r
            self._initialized = True
            return self.x
        self.x += control
        p_prior = self.p + self.process_var
        innovation = z - self.x
        inn = self._innovations
        inn.append(innovation)
        if len(inn) > self.window:
            inn.pop(0)
        n = len(inn)
        # Window statistics in np.mean/np.std's summation order (bitwise).
        if n >= 3:
            est = _numpy_sum([v * v for v in inn]) / n - p_prior
            # Keep R sane: never below a tenth of, nor above 25x, the prior.
            lo = 0.1 * self.initial_measurement_var
            hi = 25.0 * self.initial_measurement_var
            self._r = min(max(est, lo), hi)
        k = p_prior / (p_prior + self._r)
        if self.bias_gating and n >= 4:
            mean = _numpy_sum(inn) / n
            spread = math.sqrt(
                _numpy_sum([(v - mean) * (v - mean) for v in inn]) / n
            ) + 1e-9
            significance = abs(mean) / (spread / math.sqrt(n))
            # significance ~ t-statistic: ~1 for pure noise, >> 1 when the
            # trend input lags a level change. Map to a (0, 1] gain scale.
            k *= min(1.0, significance / 3.0)
        self.x += k * innovation
        self.p = (1.0 - k) * p_prior
        return self.x


@dataclass(frozen=True)
class AkfState:
    """The BF+AKF fusion's carried state after its last sample.

    The filter's ``x``/``p``, its adapted ``r``, the innovation window
    and the previous smoothed input (the next control is the smoothed
    signal's increment from it). The default is rest: nothing seen yet.
    """

    x: Optional[float] = None
    p: float = 0.0
    r: float = 0.0
    innovations: Tuple[float, ...] = ()
    prev_s: Optional[float] = None


def adaptive_kalman_fuse(
    raw: Sequence[float],
    smoothed: Sequence[float],
    process_var: float = 0.05,
    initial_measurement_var: float = 4.0,
    window: int = 12,
    state: Optional[AkfState] = None,
) -> Union[np.ndarray, Tuple[np.ndarray, AkfState]]:
    """Fuse raw RSS with a (delayed) smoothed version — the paper's BF+AKF.

    The control input at step i is the smoothed signal's increment, so the
    state rides the Butterworth trend while raw measurements pull it back to
    the present. Returns the fused signal, same length as the inputs.

    With ``state`` the fusion continues from that :class:`AkfState`
    (``AkfState()`` is rest) and returns ``(fused, state_after)``: fusing
    a signal in chunks, each chunk's state handed to the next, is
    bit-identical to fusing it whole.
    """
    raw = np.asarray(raw, dtype=float)
    smoothed = np.asarray(smoothed, dtype=float)
    if raw.shape != smoothed.shape:
        raise ConfigurationError("raw and smoothed signals must align")
    akf = AdaptiveKalman(
        process_var=process_var,
        initial_measurement_var=initial_measurement_var,
        window=window,
    )
    prev_s: Optional[float] = None
    if state is not None and state.x is not None:
        akf.x, akf.p, akf._r = state.x, state.p, state.r
        akf._innovations = list(state.innovations)
        akf._initialized = True
        prev_s = state.prev_s
    out = []
    for z, s in zip(raw.tolist(), smoothed.tolist()):
        control = 0.0 if prev_s is None else s - prev_s
        out.append(akf.step(z, control=control))
        prev_s = s
    fused = np.array(out, dtype=float)
    if state is None:
        return fused
    if not akf._initialized:
        return fused, state
    return fused, AkfState(akf.x, akf.p, akf._r, tuple(akf._innovations),
                           prev_s)
