"""Adaptive noise filtering (ANF): Butterworth + adaptive Kalman (Sec. 4.2).

Raw BLE RSS jitters with fast fading; a 6th-order Butterworth low-pass
removes the jitter but, being causal and high-order, lags the true trend —
visible as the delayed curve in the paper's Fig. 4. The AKF stage fuses the
raw readings back in, riding the Butterworth trend while staying responsive
(the "BF + AKF" curve hugging the theoretical one).

Both stages can be disabled independently for the Fig. 4/5 ablations.

The paper runs ANF over the phone's live RSS stream. A serving session does
the same through :meth:`AdaptiveNoiseFilter.stream`: each sample is
filtered once, when a solve window first holds it, and later windows reuse
its filtered value; the filter state that carries over (:class:`AnfState`)
lives in the session's checkpoint (:class:`AnfStream`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs, perf
from repro.errors import ConfigurationError, DataQualityError
from repro.filters.butterworth import ButterworthLowPass, sos_filter
from repro.filters.kalman import AkfState, adaptive_kalman_fuse
from repro.filters.smoothing import moving_average
from repro.robustness.sanitize import check_trace, robust_rate_hz
from repro.types import RssiTrace

__all__ = ["AdaptiveNoiseFilter", "AnfState", "AnfStream", "RATE_BAND"]

#: Below this many samples the Butterworth warm-up dominates; pass through.
_MIN_FILTER_SAMPLES = 6

#: The paper's fixed design (Sec. 4.2): a 6th-order Butterworth low-pass
#: at 0.8 Hz (capped below Nyquist at low sampling rates), then the AKF
#: with this process variance and initial measurement variance.
BUTTERWORTH_ORDER = 6
CUTOFF_HZ = 0.8
AKF_PROCESS_VAR = 0.05
AKF_MEASUREMENT_VAR = 9.0

#: A carried stream keeps its filter while the window's sampling rate stays
#: within this fraction of the rate the filter was designed for.
RATE_BAND = 0.05

#: A ``(timestamps, values)`` pair of rows.
Rows = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class AnfState:
    """The ANF's filter state after the last sample it filtered.

    ``zi`` holds the Butterworth sections' ``z1``/``z2`` (``None`` at rest
    or without that stage), ``akf`` the fusion's :class:`AkfState`. The
    default is rest.
    """

    zi: Optional[np.ndarray] = None
    akf: AkfState = field(default_factory=AkfState)

    @property
    def at_rest(self) -> bool:
        return self.zi is None and self.akf.x is None


@dataclass(frozen=True)
class AnfStream:
    """One session's ANF stream over its newest solve window.

    ``t``/``raw`` are the sanitized samples of the window's active segment,
    ``out`` their filtered values, ``fs_hz`` the rate the filter was
    designed for and ``state`` the filter state after ``t[-1]``. The next
    window keeps ``out`` for the samples it shares and advances ``state``
    over the newer ones only (:meth:`AdaptiveNoiseFilter.stream`).
    """

    fs_hz: float
    t: np.ndarray
    raw: np.ndarray
    out: np.ndarray
    state: AnfState

    def to_dict(self, ring: Optional[Rows] = None) -> Dict[str, Any]:
        """JSON-safe form; floats round-trip bit-exactly through JSON.

        ``ring`` is the ``(timestamps, values)`` of the rows the owner
        checkpoints beside the stream (a session's RSS ring). When ``t``
        and ``raw`` are exactly a contiguous run of those rows, which they
        are for a window sanitizing left as it was, the dict holds
        ``"ring": [offset, count]`` in their place, and
        :meth:`AdaptiveNoiseFilter.restore_stream` rebuilds them from the
        same rows.
        """
        akf = self.state.akf
        span = None if ring is None else _ring_span(self.t, self.raw, ring)
        rows: Dict[str, Any] = (
            {"t": self.t.tolist(), "raw": self.raw.tolist()}
            if span is None else {"ring": list(span)})
        return {
            "fs_hz": self.fs_hz,
            **rows,
            "out": self.out.tolist(),
            "zi": None if self.state.zi is None else self.state.zi.tolist(),
            "akf": None if akf.x is None else {
                "x": akf.x, "p": akf.p, "r": akf.r,
                "innovations": list(akf.innovations), "prev_s": akf.prev_s,
            },
        }


def _ring_span(t: np.ndarray, raw: np.ndarray,
               ring: Rows) -> Optional[Tuple[int, int]]:
    """``(offset, count)`` when ``t``/``raw`` are exactly ring rows
    ``offset:offset + count`` (the ring is sorted by time), else None."""
    ring_t, ring_raw = ring
    offset = int(np.searchsorted(ring_t, t[0]))
    stop = offset + t.size
    if (stop <= ring_t.size and np.array_equal(ring_t[offset:stop], t)
            and np.array_equal(ring_raw[offset:stop], raw)):
        return offset, t.size
    return None


def _ring_rows(span: Any, ring: Optional[Rows]) -> Rows:
    """The ``t``/``raw`` a checkpoint's ``"ring": [offset, count]`` names."""
    if ring is None:
        raise DataQualityError(
            "ANF stream refers to ring rows, but no ring was given")
    if not (isinstance(span, list) and len(span) == 2
            and all(type(v) is int and v >= 0 for v in span)):
        raise DataQualityError(
            "ANF stream ring must be [offset, count], two ints >= 0")
    offset, count = span
    ring_t, ring_raw = ring
    if offset + count > ring_t.size:
        raise DataQualityError(
            f"ANF stream ring rows {offset}:{offset + count} overrun the "
            f"{ring_t.size}-row ring")
    t = ring_t[offset:offset + count].copy()
    raw = ring_raw[offset:offset + count].copy()
    if not (np.isfinite(t).all() and np.isfinite(raw).all()):
        raise DataQualityError("ANF stream ring rows must be finite")
    return t, raw


def _finite(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataQualityError(f"ANF stream {what} is not a number: {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise DataQualityError(f"ANF stream {what} must be finite, got {out!r}")
    return out


def _vector(value: Any, what: str) -> np.ndarray:
    if not isinstance(value, list):
        raise DataQualityError(f"ANF stream {what} must be a list")
    return np.array([_finite(v, what) for v in value], dtype=float)


@dataclass
class AdaptiveNoiseFilter:
    """The paper's ANF: a fixed design applied per measurement trace.

    The design is :data:`BUTTERWORTH_ORDER`, :data:`CUTOFF_HZ`,
    :data:`AKF_PROCESS_VAR` and :data:`AKF_MEASUREMENT_VAR`; only the two
    stages switch off, for the Fig. 4/5 ablations.
    """

    use_butterworth: bool = True
    use_akf: bool = True

    def _butterworth_fits(self, n: int, fs_hz: float) -> bool:
        """Does an ``n``-sample signal take the Butterworth path at
        ``fs_hz``? The 6th-order design needs a few cutoff periods of
        signal to be worth its group delay; on shorter segments (e.g. right
        after a regression restart) a moving average stands in."""
        return n >= 3.0 * fs_hz / min(CUTOFF_HZ, 0.4 * fs_hz)

    @perf.profiled("anf.AdaptiveNoiseFilter.apply")
    def apply(
        self,
        values: Sequence[float],
        fs_hz: float,
        state: Optional[AnfState] = None,
    ) -> Union[np.ndarray, Tuple[np.ndarray, Optional[AnfState]]]:
        """Filter one RSS value sequence sampled near ``fs_hz``.

        The Butterworth cutoff is capped below Nyquist for low sampling
        rates (the Fig. 13a sweep goes down to 5.5 Hz). Both stages are
        recursive, so one non-finite reading would poison every output
        after it; such input raises :class:`~repro.errors.DataQualityError`
        naming the first bad index instead.

        With ``state`` the filter continues from that :class:`AnfState`
        and returns ``(filtered, state_after)``; ``AnfState()`` is rest,
        which filters exactly as the stateless call does. A started state
        advances over any number of new samples at the rate it was
        designed for, so ``fs_hz`` must be that rate; splitting a signal
        into chunks, each chunk's state handed to the next, filters it
        bit-identically. From rest, a signal too short for the Butterworth
        path gets the moving-average fallback (or passes through), which
        carries no state: ``state_after`` is ``None``.
        """
        values = np.asarray(values, dtype=float)
        started = state is not None and not state.at_rest
        if values.size < _MIN_FILTER_SAMPLES and not started:
            return values.copy() if state is None else (values.copy(), None)
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise DataQualityError(
                f"filter input has a non-finite RSSI value at index {bad} "
                f"({float(values.flat[bad])}); sanitize the trace before filtering"
            )
        if not np.isfinite(fs_hz) or fs_hz <= 0:
            raise ConfigurationError("fs_hz must be positive and finite")

        stateful = state is not None
        smoothed, zf, carries = values, None, True
        if self.use_butterworth:
            cutoff = min(CUTOFF_HZ, 0.4 * fs_hz)
            if started or self._butterworth_fits(values.size, fs_hz):
                bf = ButterworthLowPass(
                    order=BUTTERWORTH_ORDER, cutoff_hz=cutoff, fs_hz=fs_hz
                )
                if not stateful:
                    smoothed = bf.apply(values)
                else:
                    zi = state.zi if started else bf.rest_state(values[0])
                    smoothed, zf = sos_filter(bf.sos, values, zi)
            else:
                window = max(3, int(round(fs_hz / (2.0 * cutoff))))
                smoothed = moving_average(values, window)
                carries = False
        akf = state.akf if stateful else None
        if self.use_akf:
            # AKF without a trend input degenerates to an adaptive scalar KF.
            trend = smoothed if self.use_butterworth else values * 0.0
            variances = dict(process_var=AKF_PROCESS_VAR,
                             initial_measurement_var=AKF_MEASUREMENT_VAR)
            if not stateful:
                return adaptive_kalman_fuse(values, trend, **variances)
            smoothed, akf = adaptive_kalman_fuse(values, trend, state=akf,
                                                 **variances)
        if not stateful:
            return smoothed
        return smoothed, AnfState(zi=zf, akf=akf) if carries else None

    def stream(
        self,
        ts: np.ndarray,
        values: np.ndarray,
        fs_hz: float,
        carried: Optional[AnfStream],
        restart: bool = False,
    ) -> Tuple[np.ndarray, Optional[AnfStream]]:
        """Filter one solve window's active segment as part of a stream.

        ``ts``/``values`` are the segment's sanitized samples and ``fs_hz``
        the window's rate. Samples the window shares with ``carried`` keep
        their filtered values, and :meth:`apply` advances the carried state
        over the newer samples only. The segment is filtered from rest, and
        the stream rebuilt from it, when ``restart`` is set (an environment
        restart cut the window), when the segment is too short for the
        Butterworth path, when nothing is carried, when ``fs_hz`` has left
        :data:`RATE_BAND` around the carried design rate, or when the
        window's already-filtered samples are not exactly the carried ones
        from the window's first sample on (a straggler inserted behind the
        frontier, or a sample sanitizing dropped or collapsed there). Each
        reset is one ``pipeline.anf_resets`` signal with its ``reason``.
        Returns the filtered segment and the advanced stream (``None`` when
        the filter carries no state, see :meth:`apply`).
        """
        if restart:
            reason = "env-restart"
        elif values.size < _MIN_FILTER_SAMPLES or (
                self.use_butterworth
                and not self._butterworth_fits(values.size, fs_hz)):
            reason = "short-window"
        elif carried is None:
            reason = "no-state"
        elif abs(fs_hz - carried.fs_hz) > RATE_BAND * carried.fs_hz:
            reason = "rate-band"
        else:
            # Carried samples before the window's first one have aged out.
            first = int(np.searchsorted(carried.t, ts[0]))
            shared = carried.t.size - first
            reason = None if (
                0 < shared <= ts.size
                and np.array_equal(carried.t[first:], ts[:shared])
                and np.array_equal(carried.raw[first:], values[:shared])
            ) else "prefix"
        if reason is None:
            fs_hz = carried.fs_hz
            new, state = self.apply(values[shared:], fs_hz,
                                    state=carried.state)
            out = np.concatenate([carried.out[first:], new])
        else:
            obs.signal("pipeline.anf_resets", severity="debug", reason=reason)
            out, state = self.apply(values, fs_hz, state=AnfState())
        if state is None:
            return out, None
        return out, AnfStream(fs_hz, ts, values, out, state)

    def restore_stream(self, d: Any,
                       ring: Optional[Rows] = None) -> Optional[AnfStream]:
        """Rebuild a stream from :meth:`AnfStream.to_dict` output.

        ``None`` restores as no stream. ``ring`` must be the rows the dict
        was written beside when it names ring rows instead of ``t`` and
        ``raw``. Anything else must match this filter's stages
        (Butterworth section count, AKF present), and ring rows must lie
        inside the ring, be finite and number as many as ``out``, or the
        checkpoint is malformed: :class:`~repro.errors.DataQualityError`.
        """
        if d is None:
            return None
        if not isinstance(d, dict):
            raise DataQualityError("ANF stream must be an object")
        try:
            fs_hz = _finite(d["fs_hz"], "fs_hz")
            if "ring" in d:
                t, raw = _ring_rows(d["ring"], ring)
            else:
                t, raw = (_vector(d[k], k) for k in ("t", "raw"))
            out = _vector(d["out"], "out")
            zi_rows, akf = d["zi"], d["akf"]
        except KeyError as exc:
            raise DataQualityError(f"ANF stream lacks {exc}") from exc
        if fs_hz <= 0:
            raise DataQualityError("ANF stream fs_hz must be positive")
        if not (t.size == raw.size == out.size > 0) or np.any(np.diff(t) < 0):
            raise DataQualityError(
                "ANF stream t/raw/out must be equally long, non-empty and "
                "sorted by t")
        zi = None
        if self.use_butterworth:
            sections = (BUTTERWORTH_ORDER + 1) // 2
            if not (isinstance(zi_rows, list) and len(zi_rows) == sections):
                raise DataQualityError(
                    f"ANF stream zi must hold {sections} section states")
            rows = [_vector(row, "zi") for row in zi_rows]
            if any(row.size != 2 for row in rows):
                raise DataQualityError("ANF stream zi rows must be pairs")
            zi = np.array(rows)
        elif zi_rows is not None:
            raise DataQualityError("ANF stream has zi without a Butterworth stage")
        akf_state = AkfState()
        if self.use_akf:
            if not isinstance(akf, dict):
                raise DataQualityError("ANF stream akf must be an object")
            try:
                innovations = _vector(akf["innovations"], "innovations")
                akf_state = AkfState(
                    _finite(akf["x"], "x"), _finite(akf["p"], "p"),
                    _finite(akf["r"], "r"), tuple(innovations.tolist()),
                    _finite(akf["prev_s"], "prev_s"))
            except KeyError as exc:
                raise DataQualityError(f"ANF stream akf lacks {exc}") from exc
            if akf_state.r <= 0:
                raise DataQualityError("ANF stream akf r must be positive")
        elif akf is not None:
            raise DataQualityError("ANF stream has akf without an AKF stage")
        return AnfStream(fs_hz, t, raw, out, AnfState(zi=zi, akf=akf_state))

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
