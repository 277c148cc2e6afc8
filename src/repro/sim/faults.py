"""Fault injection: degrade clean simulated traces the way real radios do.

The paper evaluates LocBLE under the clean end of the spectrum; real
deployments live at the other end — advertisements lost in bursts when the
channel fades or WiFi contends (the Gilbert-Elliott regime the packet-count
work of De et al. models), whole-seconds scan outages when the OS throttles
the radio, receiver clocks that drift and jitter, and RSS spikes from
interferers. This module turns each pathology into a deterministic,
seedable transform on an :class:`~repro.types.RssiTrace`, and composes them
into a picklable :class:`FaultModel` that plugs straight into the
Monte-Carlo runner — a degradation curve is then a one-call experiment::

    from repro.sim.faults import FaultModel, degradation_sweep

    curves = degradation_sweep(
        scenario(1), seeds=range(20),
        fault_models=[FaultModel(loss_rate=r) for r in (0.0, 0.1, 0.3, 0.5)],
    )

Every injector takes an explicit ``rng`` so trials stay bit-reproducible
under any worker count, exactly like the rest of ``repro.sim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.types import RssiSample, RssiTrace

__all__ = [
    "FaultModel",
    "FrameFate",
    "TransportFaultModel",
    "inject_bursty_loss",
    "inject_outages",
    "inject_clock_faults",
    "inject_spikes",
    "inject_nonfinite",
    "degradation_sweep",
]


def _rebuild(trace: RssiTrace, keep: np.ndarray) -> RssiTrace:
    return RssiTrace([s for s, k in zip(trace.samples, keep) if k])


def inject_bursty_loss(
    trace: RssiTrace,
    rng: np.random.Generator,
    loss_rate: float,
    mean_burst: float = 3.0,
) -> RssiTrace:
    """Drop advertisements via a two-state Gilbert-Elliott loss process.

    ``loss_rate`` is the long-run fraction of samples lost; ``mean_burst``
    the expected run length of consecutive losses (samples). Independent
    per-sample loss is the special case ``mean_burst -> 1``.
    """
    if not 0.0 <= loss_rate < 1.0:
        raise ConfigurationError("loss_rate must be in [0, 1)")
    if mean_burst < 1.0:
        raise ConfigurationError("mean_burst must be >= 1")
    n = len(trace)
    if n == 0 or loss_rate == 0.0:
        return RssiTrace(list(trace.samples))
    # Stationary bad-state probability pi = p_gb / (p_gb + p_bg) = loss_rate
    # with p_bg = 1 / mean_burst.
    p_bg = 1.0 / mean_burst
    p_gb = loss_rate * p_bg / (1.0 - loss_rate)
    p_gb = min(p_gb, 1.0)
    keep = np.ones(n, dtype=bool)
    bad = bool(rng.random() < loss_rate)
    for i in range(n):
        keep[i] = not bad
        bad = (rng.random() >= p_bg) if bad else (rng.random() < p_gb)
    return _rebuild(trace, keep)


def inject_outages(
    trace: RssiTrace,
    rng: np.random.Generator,
    n_outages: int,
    outage_s: float,
) -> RssiTrace:
    """Blank whole scan windows: the OS paused the radio, nothing arrives."""
    if n_outages < 0:
        raise ConfigurationError("n_outages must be >= 0")
    if outage_s < 0:
        raise ConfigurationError("outage_s must be >= 0")
    if n_outages == 0 or outage_s == 0 or len(trace) == 0:
        return RssiTrace(list(trace.samples))
    ts = trace.timestamps()
    t0, t1 = float(ts[0]), float(ts[-1])
    keep = np.ones(len(trace), dtype=bool)
    for _ in range(n_outages):
        start = rng.uniform(t0, max(t1 - outage_s, t0))
        keep &= ~((ts >= start) & (ts < start + outage_s))
    return _rebuild(trace, keep)


def inject_clock_faults(
    trace: RssiTrace,
    rng: np.random.Generator,
    skew_ppm: float = 0.0,
    jitter_s: float = 0.0,
) -> RssiTrace:
    """Stretch timestamps by a constant skew and add per-sample jitter.

    Large jitter intentionally produces *out-of-order* timestamps — the
    reordered-scan-callback pathology the sanitizer exists to repair; the
    output is NOT re-sorted here.
    """
    if jitter_s < 0:
        raise ConfigurationError("jitter_s must be >= 0")
    if len(trace) == 0:
        return RssiTrace(list(trace.samples))
    ts = trace.timestamps()
    t0 = float(ts[0])
    warped = t0 + (ts - t0) * (1.0 + skew_ppm * 1e-6)
    if jitter_s > 0:
        warped = warped + rng.normal(0.0, jitter_s, size=len(ts))
    return RssiTrace([
        RssiSample(float(t), s.rssi, s.beacon_id, s.channel)
        for t, s in zip(warped, trace.samples)
    ])


def inject_spikes(
    trace: RssiTrace,
    rng: np.random.Generator,
    spike_rate: float,
    spike_db: float = 20.0,
) -> RssiTrace:
    """Contaminate a fraction of readings with large +/- dB excursions."""
    if not 0.0 <= spike_rate <= 1.0:
        raise ConfigurationError("spike_rate must be in [0, 1]")
    if spike_db < 0:
        raise ConfigurationError("spike_db must be >= 0")
    if spike_rate == 0.0 or len(trace) == 0:
        return RssiTrace(list(trace.samples))
    hit = rng.random(len(trace)) < spike_rate
    signs = np.where(rng.random(len(trace)) < 0.5, -1.0, 1.0)
    out: List[RssiSample] = []
    for s, h, sign in zip(trace.samples, hit, signs):
        rssi = s.rssi + sign * spike_db if h else s.rssi
        out.append(RssiSample(s.timestamp, float(rssi), s.beacon_id, s.channel))
    return RssiTrace(out)


def inject_nonfinite(
    trace: RssiTrace,
    rng: np.random.Generator,
    nan_rate: float,
) -> RssiTrace:
    """Replace a fraction of readings with NaN (driver/sensor glitches)."""
    if not 0.0 <= nan_rate <= 1.0:
        raise ConfigurationError("nan_rate must be in [0, 1]")
    if nan_rate == 0.0 or len(trace) == 0:
        return RssiTrace(list(trace.samples))
    hit = rng.random(len(trace)) < nan_rate
    return RssiTrace([
        RssiSample(s.timestamp, float("nan"), s.beacon_id, s.channel)
        if h else s
        for s, h in zip(trace.samples, hit)
    ])


@dataclass(frozen=True)
class FaultModel:
    """A composable, picklable bundle of trace degradations.

    Applied in fixed order — spikes, NaN glitches, bursty loss, outages,
    clock faults — so the same model degrades every trial identically given
    the trial's seed. A default-constructed model is a no-op
    (:meth:`is_null`), making it safe as an always-present parameter.
    """

    loss_rate: float = 0.0
    mean_burst: float = 3.0
    n_outages: int = 0
    outage_s: float = 1.0
    skew_ppm: float = 0.0
    jitter_s: float = 0.0
    spike_rate: float = 0.0
    spike_db: float = 20.0
    nan_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_rate", "spike_rate", "nan_rate"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v < 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1)")
        if self.mean_burst < 1.0:
            raise ConfigurationError("mean_burst must be >= 1")
        if self.n_outages < 0 or self.outage_s < 0:
            raise ConfigurationError("outage parameters must be >= 0")
        if self.jitter_s < 0 or self.spike_db < 0:
            raise ConfigurationError("jitter_s and spike_db must be >= 0")
        if not math.isfinite(self.skew_ppm):
            raise ConfigurationError("skew_ppm must be finite")

    def is_null(self) -> bool:
        return (
            self.loss_rate == 0.0 and self.n_outages == 0
            and self.skew_ppm == 0.0 and self.jitter_s == 0.0
            and self.spike_rate == 0.0 and self.nan_rate == 0.0
        )

    def apply(self, trace: RssiTrace, rng: np.random.Generator) -> RssiTrace:
        """Degrade one trace; the input is never mutated."""
        out = RssiTrace(list(trace.samples))
        if self.is_null():
            return out
        if self.spike_rate > 0:
            out = inject_spikes(out, rng, self.spike_rate, self.spike_db)
        if self.nan_rate > 0:
            out = inject_nonfinite(out, rng, self.nan_rate)
        if self.loss_rate > 0:
            out = inject_bursty_loss(out, rng, self.loss_rate, self.mean_burst)
        if self.n_outages > 0 and self.outage_s > 0:
            out = inject_outages(out, rng, self.n_outages, self.outage_s)
        if self.skew_ppm != 0.0 or self.jitter_s > 0:
            out = inject_clock_faults(out, rng, self.skew_ppm, self.jitter_s)
        return out


@dataclass(frozen=True)
class FrameFate:
    """What the transport does to one outbound frame.

    Produced by :meth:`TransportFaultModel.plan`; consumed by the
    simulated gateway client, which acts each flag out on the wire. Flags
    compose — a frame can be both duplicated and followed by a disconnect.
    """

    #: Lost in transit: never delivered, so the sender's ack wait times
    #: out and its retry machinery fires.
    drop: bool = False
    #: Delivered twice back to back (a retransmission racing its ack).
    duplicate: bool = False
    #: Swapped with the *next* frame on the wire (late scheduling).
    reorder: bool = False
    #: One payload byte flipped mid-flight; framing cannot recover, so the
    #: receiver must refuse typed and drop the connection.
    corrupt: bool = False
    #: Cut short mid-frame and the connection closed (mid-stream death).
    truncate: bool = False
    #: Clean disconnect after this frame (client roams out of coverage).
    disconnect: bool = False
    #: Seconds the sender stalls *mid-frame* before finishing it — the
    #: slow-loris pathology a read-timeout exists to bound. 0 = no stall.
    stall_s: float = 0.0


@dataclass(frozen=True)
class TransportFaultModel:
    """Seedable per-frame fault fates for a gateway client's wire stream.

    The trace-level :class:`FaultModel` degrades *what the radio heard*;
    this model degrades *how it travels*: loss, duplication, reordering,
    mid-frame corruption and truncation, disconnects, and slow-loris
    stalls. :meth:`plan` rolls each frame's fate from an explicit ``rng``
    in a fixed draw order, so a client's whole hostile schedule is a pure
    function of its seed — reproducible, like every other injector here.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    disconnect_rate: float = 0.0
    stall_rate: float = 0.0
    stall_s: float = 0.05

    _RATES = ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate",
              "truncate_rate", "disconnect_rate", "stall_rate")

    def __post_init__(self) -> None:
        for name in self._RATES:
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v < 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1)")
        if not (math.isfinite(self.stall_s) and self.stall_s >= 0.0):
            raise ConfigurationError("stall_s must be finite and >= 0")

    def is_null(self) -> bool:
        return all(getattr(self, name) == 0.0 for name in self._RATES)

    def plan(self, rng: np.random.Generator, n_frames: int) -> "List[FrameFate]":
        """Roll a fate for each of ``n_frames`` outbound frames.

        Every frame consumes the same number of draws regardless of
        outcome, so fates stay aligned across models that differ only in
        rates (curves over a fault dimension share everything else).
        """
        if n_frames < 0:
            raise ConfigurationError("n_frames must be >= 0")
        fates: List[FrameFate] = []
        for _ in range(n_frames):
            rolls = rng.random(len(self._RATES))
            fates.append(FrameFate(
                drop=bool(rolls[0] < self.drop_rate),
                duplicate=bool(rolls[1] < self.duplicate_rate),
                reorder=bool(rolls[2] < self.reorder_rate),
                corrupt=bool(rolls[3] < self.corrupt_rate),
                truncate=bool(rolls[4] < self.truncate_rate),
                disconnect=bool(rolls[5] < self.disconnect_rate),
                stall_s=(self.stall_s if rolls[6] < self.stall_rate else 0.0),
            ))
        return fates


def degradation_sweep(
    scenario,
    seeds: Iterable[int],
    fault_models: Sequence[FaultModel],
    failure_value: Optional[float] = None,
    max_workers: Optional[int] = None,
    parallel: str = "auto",
    pipeline_factory=None,
) -> List[Tuple[FaultModel, List[float]]]:
    """Error samples per fault model: the raw material of a degradation curve.

    Runs :func:`repro.sim.montecarlo.stationary_trials` once per model over
    the same seeds (so curves differ only by the injected faults) with the
    pipeline in repair mode. Returns ``[(model, errors), ...]`` in the order
    given; summarize with :func:`repro.sim.montecarlo.summarize`.

    ``pipeline_factory`` swaps the trial pipeline — e.g.
    :func:`repro.service.session.default_pipeline_factory`, the serving
    stack's repair-mode pipeline. It must be picklable for the
    process-parallel path.
    """
    from repro.sim.montecarlo import stationary_trials

    seeds = list(seeds)
    out: List[Tuple[FaultModel, List[float]]] = []
    for model in fault_models:
        errors = stationary_trials(
            scenario,
            seeds,
            fault_model=model,
            failure_value=failure_value,
            max_workers=max_workers,
            parallel=parallel,
            pipeline_factory=pipeline_factory,
        )
        out.append((model, errors))
    return out
