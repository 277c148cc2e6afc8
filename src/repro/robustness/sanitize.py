"""Trace sanitization: turn dirty field logs into usable RSS traces.

The paper's premise is that BLE RSS is "highly susceptible to environment
changes" (Sec. 4), and real scan logs are dirtier still: advertisements are
dropped in bursts, OS scan callbacks coalesce or reorder reports, sensor
hiccups produce NaN readings, and clock adjustments skew timestamps. The
estimation pipeline assumes a clean, time-sorted, finite trace — this module
is the boundary between the two worlds.

Two entry styles share one implementation:

* :func:`check_trace` — *strict*: verify the trace is already clean and
  raise a typed :class:`~repro.errors.DataQualityError` describing the first
  pathology found. Used by default at every pipeline entry point, so
  malformed input can never silently corrupt an estimate.
* :func:`sanitize_trace` — *repair*: sort, dedupe, drop non-finite and
  implausible readings, and return the repaired trace together with a
  structured :class:`SanitizationReport` of everything that was done and
  every anomaly (dropout gaps, rate anomalies) that was observed. Used by
  :meth:`LocBLE.estimate_robust <repro.core.pipeline.LocBLE.estimate_robust>`
  and by fault-injection experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import DataQualityError
from repro.types import RssiSample, RssiTrace

__all__ = [
    "SanitizationReport",
    "check_trace",
    "sanitize_trace",
    "robust_rate_hz",
    "RSSI_PLAUSIBLE_DBM",
    "DEFAULT_GAP_FACTOR",
]

#: Readings outside this closed dBm interval are physically implausible for
#: a BLE link (thermal floor ~-110 dBm; +20 dBm exceeds the strongest class-1
#: transmitter at zero path loss) and are treated as scanner glitches.
RSSI_PLAUSIBLE_DBM: Tuple[float, float] = (-120.0, 20.0)

#: An inter-arrival exceeding this multiple of the trace's median interval is
#: reported as a dropout gap (scan pause, bursty loss, radio contention).
DEFAULT_GAP_FACTOR = 5.0

#: Robust rates outside this band are flagged as anomalous: BLE advertising
#: below ~0.5 Hz cannot drive the pipeline's windowing, and >100 Hz exceeds
#: any phone scanner's report rate (duplicate-timestamp floods, unit bugs).
_PLAUSIBLE_RATE_HZ: Tuple[float, float] = (0.5, 100.0)


def robust_rate_hz(timestamps: np.ndarray) -> float:
    """Sampling rate from the median positive inter-arrival time.

    Unlike the trace-level mean rate ``(n-1)/duration``, the median interval
    is insensitive to dropout gaps (which stretch the duration) and to
    duplicate timestamps (zero intervals are excluded). Returns 0.0 when no
    positive interval exists (fewer than two distinct timestamps).
    """
    ts = np.sort(np.asarray(timestamps, dtype=float))
    if ts.size < 2:
        return 0.0
    dt = np.diff(ts)
    dt = dt[np.isfinite(dt) & (dt > 0.0)]
    if dt.size == 0:
        return 0.0
    # np.median's value (its order statistics, the middle two averaged as
    # np.mean adds them), without its per-call overhead.
    k = dt.size // 2
    if dt.size % 2:
        median = float(np.partition(dt, k)[k])
    else:
        part = np.partition(dt, (k - 1, k))
        median = (float(part[k - 1]) + float(part[k])) / 2.0
    return 1.0 / median


@dataclass(frozen=True)
class SanitizationReport:
    """Structured account of what sanitization found and changed.

    ``clean`` means the trace needed no repair at all; ``issues`` carries a
    human-readable tag per anomaly class so experiment code can assert on
    (or tabulate) failure modes without string-matching exception messages.
    Observational findings (dropout gaps, rate anomalies) do not make a
    trace un-clean on their own — they describe degradation, not corruption.
    """

    n_input: int
    n_output: int
    n_nonfinite_dropped: int = 0
    n_implausible_dropped: int = 0
    n_duplicates_collapsed: int = 0
    was_sorted: bool = True
    dropout_gaps: Tuple[Tuple[float, float], ...] = ()
    rate_hz: float = 0.0
    rate_anomaly: bool = False
    issues: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        """True when the input trace required no repair."""
        return (
            self.n_nonfinite_dropped == 0
            and self.n_implausible_dropped == 0
            and self.n_duplicates_collapsed == 0
            and self.was_sorted
        )

    @property
    def degraded(self) -> bool:
        """True when the trace was repaired or shows degradation signs."""
        return not self.clean or bool(self.dropout_gaps) or self.rate_anomaly

    @property
    def n_dropped(self) -> int:
        return self.n_input - self.n_output

    def summary(self) -> str:
        """One-line report for logs and CLI output."""
        if not self.issues:
            return f"clean trace ({self.n_output} samples, {self.rate_hz:.1f} Hz)"
        return (
            f"{self.n_input}->{self.n_output} samples, {self.rate_hz:.1f} Hz; "
            + ", ".join(self.issues)
        )


def check_trace(trace: RssiTrace, context: str = "trace") -> None:
    """Strict validation: raise :class:`DataQualityError` on the first flaw.

    Checks, in order: non-finite timestamps, non-finite RSSI values,
    timestamp ordering. Messages name the count and the remedy so a failing
    batch job points straight at its bad input. An empty trace passes, and
    so do duplicate timestamps (coalesced scan reports).
    """
    if len(trace) == 0:
        return
    ts = trace.timestamps()
    vals = trace.values()
    if _clean_arrays(ts, vals):
        return
    if not np.all(np.isfinite(ts)):
        bad = int(np.sum(~np.isfinite(ts)))
        raise DataQualityError(
            f"{context} contains {bad} non-finite timestamp(s); "
            "sanitize the log before processing"
        )
    if not np.all(np.isfinite(vals)):
        bad = int(np.sum(~np.isfinite(vals)))
        raise DataQualityError(
            f"{context} contains {bad} non-finite RSSI value(s); "
            "clean the log before estimation"
        )
    if np.any(np.diff(ts) < 0):
        raise DataQualityError(
            f"{context} timestamps are not sorted; sort samples by time "
            "before estimation"
        )


def _clean_arrays(ts: np.ndarray, vals: np.ndarray) -> bool:
    """Does a window need no repair at all? One vectorized pass over its
    arrays: finite timestamps, strictly increasing, and every reading
    within :data:`RSSI_PLAUSIBLE_DBM` (which also makes it finite)."""
    lo, hi = RSSI_PLAUSIBLE_DBM
    return bool(np.isfinite(ts).all() and (np.diff(ts) > 0.0).all()
                and ((vals >= lo) & (vals <= hi)).all())


def sanitize_trace(trace: RssiTrace) -> Tuple[RssiTrace, SanitizationReport]:
    """Repair a trace and report everything found along the way.

    The repair pipeline, in order:

    1. drop samples with non-finite timestamps or RSSI;
    2. drop samples whose RSSI lies outside :data:`RSSI_PLAUSIBLE_DBM`
       (glitches);
    3. stable-sort the survivors by timestamp;
    4. collapse exact duplicate timestamps to one sample holding the median
       of the coalesced readings (keeping the first sample's metadata);
    5. detect dropout gaps (interval > :data:`DEFAULT_GAP_FACTOR` x median
       interval) and rate anomalies, recording them without altering the
       data.

    A trace that needs none of steps 1–4 (one vectorized pass over its
    arrays finds every value finite and plausible and the timestamps
    strictly increasing) keeps its samples as they are; only step 5 runs.

    Returns the repaired trace and the :class:`SanitizationReport`. Never
    raises on dirty data — an unusably empty result is itself reported
    (``n_output == 0``) and left for the caller's policy to handle.
    """
    n_input = len(trace)
    samples = list(trace.samples)
    ts = trace.timestamps()
    vals = trace.values()
    if _clean_arrays(ts, vals):
        # The common case: nothing to repair, so the samples pass as they
        # are, with the arrays just built (read-only, as the trace hands
        # them on), and only the observational findings remain to be made.
        ts.flags.writeable = vals.flags.writeable = False
        return RssiTrace(samples, arrays=(ts, vals)), _report(
            ts, [], n_input=n_input, n_output=n_input)
    issues: List[str] = []

    finite = [
        s for s in samples
        if np.isfinite(s.timestamp) and np.isfinite(s.rssi)
    ]
    n_nonfinite = n_input - len(finite)
    if n_nonfinite:
        issues.append(f"dropped {n_nonfinite} non-finite sample(s)")

    lo, hi = RSSI_PLAUSIBLE_DBM
    plausible = [s for s in finite if lo <= s.rssi <= hi]
    n_implausible = len(finite) - len(plausible)
    if n_implausible:
        issues.append(
            f"dropped {n_implausible} implausible reading(s) outside "
            f"[{lo:.0f}, {hi:.0f}] dBm"
        )

    was_sorted = all(
        plausible[i].timestamp <= plausible[i + 1].timestamp
        for i in range(len(plausible) - 1)
    )
    if not was_sorted:
        plausible = sorted(plausible, key=lambda s: s.timestamp)
        issues.append("re-sorted out-of-order timestamps")

    n_duplicates = 0
    if plausible:
        merged: List[RssiSample] = []
        group: List[RssiSample] = [plausible[0]]
        for s in plausible[1:]:
            if s.timestamp == group[0].timestamp:
                group.append(s)
                continue
            merged.append(_collapse(group))
            n_duplicates += len(group) - 1
            group = [s]
        merged.append(_collapse(group))
        n_duplicates += len(group) - 1
        if n_duplicates:
            issues.append(f"collapsed {n_duplicates} duplicate timestamp(s)")
        plausible = merged

    out = RssiTrace(plausible)
    report = _report(
        out.timestamps(),
        issues,
        n_input=n_input,
        n_output=len(out),
        n_nonfinite_dropped=n_nonfinite,
        n_implausible_dropped=n_implausible,
        n_duplicates_collapsed=n_duplicates,
        was_sorted=was_sorted,
    )
    return out, report


def _report(ts: np.ndarray, issues: List[str],
            **repairs: object) -> SanitizationReport:
    """The report on a sanitized window with timestamps ``ts``: the
    ``repairs`` made and ``issues`` found so far, plus its dropout gaps
    and sampling-rate findings."""
    gaps: List[Tuple[float, float]] = []
    rate = robust_rate_hz(ts)
    if ts.size >= 3 and rate > 0:
        dt = np.diff(ts)
        threshold = DEFAULT_GAP_FACTOR / rate
        for i in np.flatnonzero(dt > threshold):
            gaps.append((float(ts[i]), float(ts[i + 1])))
        if gaps:
            issues.append(f"{len(gaps)} dropout gap(s) > {threshold:.2f} s")
    rate_anomaly = ts.size >= 2 and not (
        _PLAUSIBLE_RATE_HZ[0] <= rate <= _PLAUSIBLE_RATE_HZ[1]
    )
    if rate_anomaly:
        issues.append(f"anomalous sampling rate {rate:.2f} Hz")
    return SanitizationReport(
        dropout_gaps=tuple(gaps),
        rate_hz=rate,
        rate_anomaly=rate_anomaly,
        issues=tuple(issues),
        **repairs,
    )


def _collapse(group: List[RssiSample]) -> RssiSample:
    """Merge samples sharing one timestamp into a single median reading."""
    if len(group) == 1:
        return group[0]
    first = group[0]
    return RssiSample(
        timestamp=first.timestamp,
        rssi=float(np.median([s.rssi for s in group])),
        beacon_id=first.beacon_id,
        channel=first.channel,
    )
