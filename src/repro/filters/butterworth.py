"""From-scratch Butterworth low-pass filter design and SOS filtering.

The paper's ANF uses "a fine-tuned Butterworth filter ... a low-pass filter
based on a 6th-order Butterworth filter" (Sec. 4.2). We implement the full
design chain ourselves — analog prototype poles, frequency pre-warping,
bilinear transform, pairing into second-order sections — and a causal
direct-form-II-transposed SOS filter. The causal filter's group delay is the
very artefact the paper's AKF exists to compensate, so we deliberately do
*not* use zero-phase (filtfilt-style) filtering in the pipeline.

The design is validated against ``scipy.signal.butter`` in the test suite.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["butter_lowpass_sos", "sos_filter", "ButterworthLowPass"]


def butter_lowpass_sos(order: int, cutoff_hz: float, fs_hz: float) -> np.ndarray:
    """Design a digital Butterworth low-pass as second-order sections.

    Returns an array of shape (n_sections, 6): rows are
    ``[b0, b1, b2, a0, a1, a2]`` with ``a0 == 1``. Odd orders get one
    first-order section (with ``b2 = a2 = 0``).
    """
    if order < 1:
        raise ConfigurationError("filter order must be >= 1")
    if not 0.0 < cutoff_hz < fs_hz / 2.0:
        raise ConfigurationError(
            f"cutoff must be in (0, fs/2); got {cutoff_hz} at fs={fs_hz}"
        )

    # Analog prototype: poles of H(s)H(-s) on the unit circle, left half-plane.
    proto_poles = [
        cmath.exp(1j * math.pi * (2.0 * k + order - 1.0) / (2.0 * order))
        for k in range(1, order + 1)
    ]

    # Pre-warp the cutoff so the digital filter's -3 dB lands exactly there.
    warped = 2.0 * fs_hz * math.tan(math.pi * cutoff_hz / fs_hz)
    analog_poles = [warped * p for p in proto_poles]

    # Bilinear transform: s -> 2 fs (z-1)/(z+1); every analog zero at
    # infinity maps to z = -1.
    fs2 = 2.0 * fs_hz
    digital_poles = [(fs2 + s) / (fs2 - s) for s in analog_poles]

    # Pair complex-conjugate poles into biquads. Sort by imag magnitude so
    # conjugates sit together; a real leftover pole forms a 1st-order section.
    complex_poles = sorted(
        (p for p in digital_poles if abs(p.imag) > 1e-10), key=lambda p: p.imag
    )
    real_poles = [p for p in digital_poles if abs(p.imag) <= 1e-10]
    # Conjugates appear as (-im ... +im) mirrored; pair p with its conjugate.
    used = [False] * len(complex_poles)
    pairs: List[tuple] = []
    for i, p in enumerate(complex_poles):
        if used[i]:
            continue
        for j in range(i + 1, len(complex_poles)):
            if not used[j] and abs(complex_poles[j] - p.conjugate()) < 1e-8:
                used[i] = used[j] = True
                pairs.append((p, complex_poles[j]))
                break
        else:
            raise ConfigurationError("unpaired complex pole; design failed")

    sections: List[List[float]] = []
    for p, q in pairs:
        a1 = -(p + q).real
        a2 = (p * q).real
        sections.append([1.0, 2.0, 1.0, 1.0, a1, a2])
    for p in real_poles:
        sections.append([1.0, 1.0, 0.0, 1.0, -p.real, 0.0])

    # Normalise overall DC gain to 1, spreading gain evenly over sections.
    sos = np.array(sections, dtype=float)
    dc = 1.0
    for row in sos:
        dc *= (row[0] + row[1] + row[2]) / (row[3] + row[4] + row[5])
    if dc <= 0:
        raise ConfigurationError("non-positive DC gain; design failed")
    per_section = (1.0 / dc) ** (1.0 / len(sos))
    sos[:, :3] *= per_section
    return sos


def sos_filter(
    sos: np.ndarray, x: Sequence[float], zi: Optional[np.ndarray] = None
) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Causal filtering through cascaded biquads (direct form II transposed).

    The recurrence runs over Python floats: the same IEEE operations in the
    same order as over NumPy scalars, without their per-operation overhead.

    With ``zi`` (shape ``(n_sections, 2)``: each section's ``z1``/``z2``)
    the cascade starts from that state instead of rest and returns
    ``(y, zf)``, ``zf`` its state after the last sample. Feeding each
    chunk's ``zf`` to the next chunk as ``zi`` filters a signal in pieces
    bit-identically to filtering it whole; zero ``zi`` is rest.
    """
    sos = np.asarray(sos, dtype=float)
    if sos.ndim != 2 or sos.shape[1] != 6:
        raise ConfigurationError("sos must have shape (n_sections, 6)")
    if zi is None:
        states = [(0.0, 0.0)] * len(sos)
    else:
        zi = np.asarray(zi, dtype=float)
        if zi.shape != (len(sos), 2):
            raise ConfigurationError("zi must have shape (n_sections, 2)")
        states = zi.tolist()
    y = np.asarray(x, dtype=float).tolist()
    zf = []
    for (b0, b1, b2, a0, a1, a2), (z1, z2) in zip(sos.tolist(), states):
        if abs(a0 - 1.0) > 1e-12:
            b0, b1, b2, a1, a2 = b0 / a0, b1 / a0, b2 / a0, a1 / a0, a2 / a0
        out = []
        for xi in y:
            yi = b0 * xi + z1
            z1 = b1 * xi + z2 - a1 * yi
            z2 = b2 * xi - a2 * yi
            out.append(yi)
        y = out
        zf.append((z1, z2))
    if zi is None:
        return np.array(y, dtype=float)
    return np.array(y, dtype=float), np.array(zf, dtype=float)


@functools.lru_cache(maxsize=64)
def _designed(order: int, cutoff_hz: float, fs_hz: float) -> np.ndarray:
    """:func:`butter_lowpass_sos`, designed once per parameter set (a
    stream's filter keeps its design across solves) and read-only."""
    sos = butter_lowpass_sos(order, cutoff_hz, fs_hz)
    sos.flags.writeable = False
    return sos


@dataclass
class ButterworthLowPass:
    """A reusable causal Butterworth low-pass filter.

    The paper's BF is 6th order; at RSS sampling rates near 9 Hz a cutoff
    around 0.6–1 Hz removes fast fading while keeping the distance trend.
    Initial conditions are set to the first sample's steady state so the
    filter does not ring from zero at trace start.
    """

    order: int = 6
    cutoff_hz: float = 0.8
    fs_hz: float = 9.0

    def __post_init__(self) -> None:
        self._sos = _designed(self.order, self.cutoff_hz, self.fs_hz)

    @property
    def sos(self) -> np.ndarray:
        return self._sos.copy()

    @property
    def warmup(self) -> int:
        """Samples of the first value :meth:`apply` runs in before a signal."""
        return max(8 * self.order, int(round(8.0 * self.fs_hz / self.cutoff_hz)))

    def apply(self, x: Sequence[float]) -> np.ndarray:
        """Filter a whole signal causally, with step-free start-up.

        We prepend a constant run of the first sample long enough for
        transients to settle, filter, and drop the warm-up — equivalent to
        initialising the section states at the first sample's steady state.
        """
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return x.copy()
        padded = np.concatenate([np.full(self.warmup, x[0]), x])
        return sos_filter(self._sos, padded)[self.warmup:]

    def rest_state(self, x0: float) -> np.ndarray:
        """The section states after :meth:`apply`'s warm-up run of ``x0``.

        ``sos_filter(sos, x, rest_state(x[0]))`` is ``(apply(x), zf)``, bit
        for bit: the stream form of :meth:`apply`.
        """
        run = np.full(self.warmup, float(x0))
        return sos_filter(self._sos, run, np.zeros((len(self._sos), 2)))[1]
