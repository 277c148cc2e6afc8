"""One supervised per-beacon tracking session over a live scan stream.

A :class:`TrackingSession` is the temporal half of robustness: where
:meth:`LocBLE.estimate <repro.core.pipeline.LocBLE.estimate>` hardens one
*batch* against dirty inputs, the session hardens a *lifetime* of batches
against the stream-level pathologies real deployments exhibit — multi-minute
scan gaps, standstill observers whose geometry cannot solve, solve storms
after bursty loss. It owns:

* a bounded, drop-oldest RSS buffer (:mod:`repro.service.buffers`), and
  beside it the noise filter's stream over that buffer, so each sample is
  filtered once (:class:`~repro.core.anf.AnfStream`);
* the solve loop: periodic :class:`~repro.core.pipeline.LocBLE` regressions
  over a sliding window, skipped while the window lacks data and held back
  by a circuit breaker after repeated solve failures
  (:mod:`repro.service.breaker`);
* a :class:`~repro.core.tracking.BeaconTracker` Kalman filter fusing
  accepted fixes and coasting through gaps;
* the :class:`~repro.service.health.HealthMachine` summarizing it all.

Everything is checkpointable: :meth:`TrackingSession.checkpoint` emits a
JSON-safe dict from which :meth:`TrackingSession.restore` resumes
**bit-identically** — the same future ingest/tick sequence yields the same
``TrackState`` sequence, verified continuously by :mod:`repro.sim.soak`.

Frame caveat: each solve's measurement frame is anchored at the start of its
IMU window, so fixes stay mutually consistent only while the window covers
the whole walk (the paper's measurement-walk use case). Once stream time
exceeds ``window_s`` the anchor slides; the supervision machinery is
unaffected, but absolute track coordinates are then only window-relative.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left
from hashlib import blake2b
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.anf import AnfStream
from repro.core.estimator import FitRequest, FitResult, WarmStartState
from repro.core.pipeline import LocBLE, PreparedEstimate
from repro.core.tracking import BeaconTracker, TrackState
from repro.errors import (
    ConfigurationError,
    DataQualityError,
    DegenerateGeometryError,
    EstimationError,
    InsufficientDataError,
)
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.buffers import BoundedBuffer
from repro.service.checkpoint import restore_guard
from repro.obs.provenance import FixProvenance
from repro.motion.deadreckoning import TrackMemo
from repro.service.health import HealthConfig, HealthMachine, SessionState
from repro.types import (
    ImuSample,
    ImuTrace,
    LocationEstimate,
    RssiSample,
    RssiTrace,
)

__all__ = ["SessionConfig", "SessionSnapshot", "TrackingSession",
           "PendingSolve", "ImuTick", "ImuRing", "snapshot_key",
           "snapshot_digest"]

#: Checkpoint schema version written by :meth:`TrackingSession.checkpoint`.
SESSION_CHECKPOINT_FORMAT = 1

#: A carried warm-start state older than this (stream seconds) is dropped
#: and the next solve runs cold.
WARM_MAX_AGE_S = 30.0

#: Keys that session configs carried while these values were settable,
#: with the one value each may still hold (see
#: :meth:`SessionConfig.from_dict`).
_FIXED_KEYS = (("warm_start", True), ("warm_max_age_s", WARM_MAX_AGE_S))

#: A pipeline factory builds the (stateless-per-solve) estimation pipeline a
#: restored session runs on; it must be deterministic for bit-identical
#: resume. The default is repair-mode LocBLE — streams are dirty by nature.
PipelineFactory = Callable[[], LocBLE]


def default_pipeline_factory() -> LocBLE:
    return LocBLE(sanitize="repair")


@dataclass(frozen=True)
class SessionConfig:
    """Supervision policy for one tracking session.

    ``window_s`` bounds the sliding RSS/IMU solve window; ``solve_period_s``
    the cadence of regression attempts; ``min_confidence`` the residual-test
    confidence below which an accepted fix still counts as *degraded*.
    ``rss_buffer`` caps buffered scans (drop-oldest beyond it).
    ``process_accel_std`` / ``default_fix_std`` parameterize the Kalman
    tracker; nested configs drive the health machine and circuit breaker.
    Whether a window has enough data to solve is the pipeline's rule, not
    a setting here.

    A session carries each accepted fix's solver state into the next
    solve so consecutive overlapping windows skip the cold exponent-grid
    search; states older than :data:`WARM_MAX_AGE_S` are dropped. Each
    window's frame is anchored at the observer's pose at the window's
    first IMU sample, so it moves with the walk. The state records the
    observer's pose at its window's newest matched RSS time, and the next
    solve re-anchors the position seed through the observer's body frame
    at that time into its own frame. When the new window's track does not
    span that time, or the state carries no pose (a checkpoint written
    before poses were recorded), the seed goes in unshifted. The solver's acceptance
    guard rejects any warm fit whose residuals blow up and re-runs cold, so
    warm-starting is latency-only, never accuracy.
    """

    window_s: float = 60.0
    solve_period_s: float = 2.0
    min_confidence: float = 0.1
    rss_buffer: int = 1024
    process_accel_std: float = 0.5
    default_fix_std: float = 2.0
    health: HealthConfig = field(default_factory=HealthConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.window_s) and self.window_s > 0):
            raise ConfigurationError("window_s must be finite and > 0")
        if not (math.isfinite(self.solve_period_s) and self.solve_period_s > 0):
            raise ConfigurationError("solve_period_s must be finite and > 0")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigurationError("min_confidence must be in [0, 1]")
        if self.rss_buffer < 8:
            raise ConfigurationError("rss_buffer must be >= 8")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SessionConfig":
        """Rebuild a config from :meth:`to_dict` output.

        The one reader of session, service and fleet checkpoints and of
        gateway trace headers. Those written while solver backends were
        selectable carry a ``"solver"`` key: ``"elliptical"``, the only
        solver left, is dropped; any other value names a removed backend
        and raises :class:`~repro.errors.ConfigurationError`. Those written
        while sessions had a retry backoff carry ``"backoff"`` and
        ``"min_imu_samples"``, both dropped. Those written while the warm
        start was settable carry ``"warm_start"`` and ``"warm_max_age_s"``:
        ``true`` and ``30.0``, what every session now does, are dropped;
        any other value asks for a behaviour that is gone and raises
        :class:`~repro.errors.ConfigurationError`.
        """
        d = dict(d)
        d.pop("backoff", None)
        d.pop("min_imu_samples", None)
        for key, fixed in _FIXED_KEYS:
            value = d.pop(key, fixed)
            if (value != fixed
                    or isinstance(value, bool) != isinstance(fixed, bool)):
                raise ConfigurationError(
                    f"session config sets {key}={value!r}, but it is fixed "
                    f"at {fixed!r} and no longer settable"
                )
        solver = d.pop("solver", "elliptical")
        if solver != "elliptical":
            raise ConfigurationError(
                f"session config selects solver backend {solver!r}, which "
                "was removed; only the elliptical regression remains"
            )
        return cls(
            health=HealthConfig(**d.pop("health")),
            breaker=BreakerConfig(**d.pop("breaker")),
            **d,
        )


@dataclass
class PendingSolve:
    """A solve this session has prepared and gated, awaiting its batched fit.

    Produced by :meth:`TrackingSession.begin_step`; the service stacks the
    ``request`` of every due session into one
    :func:`repro.core.estimator.fit_batch` call and hands each result back
    through :meth:`TrackingSession.resolve_solve`.
    """

    t: float
    prepared: PreparedEstimate
    request: FitRequest


class ImuTick:
    """The shared observer IMU as every session of one tick sees it.

    Sessions ask it for their solve window instead of slicing the buffer
    themselves: each distinct ``window_s`` is sliced once, and
    :attr:`tracks` dead-reckons each window once per tracker
    configuration for all of them. Valid for its tick's time ``t`` only.
    """

    def __init__(self, imu: ImuTrace, t: float):
        self.imu = imu
        self.t = t
        self.tracks = TrackMemo()
        self._ts: Optional[list] = None
        self._windows: Dict[float, ImuTrace] = {}

    def window(self, window_s: float) -> ImuTrace:
        """IMU samples in ``[t - window_s, t)``."""
        out = self._windows.get(window_s)
        if out is None:
            if self._ts is None:
                self._ts = [s.timestamp for s in self.imu.samples]
            lo = bisect_left(self._ts, self.t - window_s)
            hi = bisect_left(self._ts, self.t)
            out = self._windows[window_s] = ImuTrace(self.imu.samples[lo:hi])
        return out


class ImuRing:
    """The observer's bounded IMU ring: buffering, aging and the tick view.

    One phone walks, so one ring serves every session solving against it:
    a standalone :class:`~repro.service.TrackingService` owns one, and a
    :class:`~repro.fleet.TrackingFleet` owns one for all of its shards.
    :meth:`tick` ages out samples older than ``t - window_s`` (the session
    window, the oldest row any solve window reads) and opens the tick's
    :class:`ImuTick`. Non-finite timestamps are refused at the door
    (``service.imu_rejected``); capacity overflow sheds the oldest sample
    (``service.shed.imu``).
    """

    def __init__(self, maxlen: int, window_s: float):
        self.window_s = float(window_s)
        self.buffer = BoundedBuffer[ImuSample](maxlen, name="imu")

    def ingest(self, samples: Iterable[ImuSample]) -> int:
        """Buffer observer IMU samples; returns how many were taken."""
        taken = 0
        for s in samples:
            if not math.isfinite(s.timestamp):
                obs.signal("service.imu_rejected", severity="warning")
                continue
            self.buffer.append(s)
            taken += 1
        return taken

    def tick(self, t: float) -> ImuTick:
        """Age the ring out to ``t`` and open the tick's shared view."""
        if not math.isfinite(t):
            raise ConfigurationError("step time must be finite")
        horizon = t - self.window_s
        self.buffer.drop_while(lambda s: s.timestamp < horizon)
        return ImuTick(ImuTrace(self.buffer.items()), t)

    def checkpoint(self) -> Dict[str, Any]:
        """The ring's rows and shed count, as the ``imu``/``imu_shed`` keys
        of its owner's checkpoint."""
        return {
            "imu": [[s.timestamp, s.accel, s.gyro_z, s.mag_heading]
                    for s in self.buffer],
            "imu_shed": self.buffer.shed,
        }

    @classmethod
    def restore(cls, cp: Dict[str, Any], maxlen: int,
                window_s: float) -> "ImuRing":
        """Rebuild a ring from the ``imu``/``imu_shed`` keys of ``cp``."""
        ring = cls(maxlen, window_s)
        for t, accel, gyro_z, mag_heading in cp["imu"]:
            ring.buffer.append(ImuSample(float(t), float(accel),
                                         float(gyro_z), float(mag_heading)))
        ring.buffer.shed = int(cp["imu_shed"])
        return ring


@dataclass(frozen=True)
class SessionSnapshot:
    """What one session looks like after :meth:`TrackingSession.finish_step`."""

    beacon_id: str
    t: float
    state: str
    breaker_state: str
    fix_age_s: float
    track: Optional[TrackState]
    estimate: Optional[LocationEstimate]
    buffered: int
    shed: int


def _ring_arrays(samples: List[RssiSample]) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(timestamps, values)`` of a session's RSS ring rows."""
    return (np.array([s.timestamp for s in samples], dtype=float),
            np.array([s.rssi for s in samples], dtype=float))


def snapshot_key(snap: SessionSnapshot) -> tuple:
    """The bit-identity contract of a snapshot.

    Checkpoint resume, live migration and trace replay are all judged by
    it. ``estimate`` is deliberately excluded: the last in-memory estimate
    is transient (regenerated at the next solve) and not part of the
    checkpoint format. Everything else — track state, health, breaker,
    buffer occupancy — must match exactly.
    """
    return (
        snap.beacon_id, snap.t, snap.state, snap.breaker_state,
        snap.fix_age_s, snap.track, snap.buffered, snap.shed,
    )


def snapshot_digest(snapshots: Dict[str, SessionSnapshot]) -> str:
    """A digest of one tick's snapshots over their sorted
    :func:`snapshot_key` tuples (``repr`` round-trips floats exactly)."""
    blob = repr([snapshot_key(snapshots[b]) for b in sorted(snapshots)])
    return blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


class TrackingSession:
    """Supervised tracking of one beacon over incrementally arriving scans."""

    def __init__(
        self,
        beacon_id: str,
        config: Optional[SessionConfig] = None,
        pipeline_factory: PipelineFactory = default_pipeline_factory,
    ):
        self.beacon_id = beacon_id
        self.config = config or SessionConfig()
        self._pipeline_factory = pipeline_factory
        self.pipeline = pipeline_factory()
        self.tracker = self._new_tracker()
        self.health = HealthMachine(self.config.health)
        self.breaker = CircuitBreaker(self.config.breaker, key=beacon_id)
        self.rss = BoundedBuffer[RssiSample](
            self.config.rss_buffer, name=f"rss.{beacon_id}"
        )
        self.last_solve_t: Optional[float] = None
        self.last_estimate: Optional[LocationEstimate] = None
        self._last_env_change_t: Optional[float] = None
        self._warm: Optional[WarmStartState] = None
        self._anf: Optional[AnfStream] = None
        self.counters: Dict[str, int] = {
            "solves_attempted": 0,
            "solves_shed": 0,
            "solves_skipped_nodata": 0,
            "solves_degenerate": 0,
            "solves_transient_failures": 0,
            "fixes_accepted": 0,
            "fixes_degraded": 0,
            "tracks_dropped": 0,
        }

    def _new_tracker(self) -> BeaconTracker:
        return BeaconTracker(
            process_accel_std=self.config.process_accel_std,
            default_fix_std=self.config.default_fix_std,
        )

    # -- ingestion -----------------------------------------------------------

    def ingest(self, samples: Iterable[RssiSample]) -> int:
        """Buffer scan samples for this beacon; returns how many were taken.

        Non-finite timestamps are refused at the door (counted, not raised):
        a poisoned timestamp would corrupt the time-windowing that every
        later decision depends on. RSSI values are *not* screened here — the
        repair-mode pipeline sanitizes them per solve, and dropping them
        early would hide the degradation from the sanitization report.

        Stream order is a *sort-or-refuse* policy: a sample older than the
        buffer head (the reordered-scan-callback pathology
        :func:`repro.sim.faults.inject_clock_faults` deliberately emits) is
        **repaired** by sorted insertion so the buffer — and therefore every
        solve window sliced from it — stays time-ordered; an exact duplicate
        of a buffered sample (same timestamp, RSSI and channel — the
        signature of a retried delivery) is **refused**. Both paths are
        signalled (``service.ingest_reordered`` /
        ``service.ingest_duplicate``), never silent.
        """
        taken = 0
        for s in samples:
            if not math.isfinite(s.timestamp):
                obs.signal("service.ingest_rejected_nonfinite_t",
                           ledger=self.counters, severity="warning",
                           beacon=self.beacon_id)
                continue
            last = self.rss.last()
            if last is None or s.timestamp >= last.timestamp:
                # In-order fast path. A tie with the buffer head is only a
                # duplicate when the payload matches too; otherwise it is a
                # distinct same-instant reading and appends in arrival
                # order.
                if (last is not None and s.timestamp == last.timestamp
                        and self._is_duplicate(s)):
                    obs.signal("service.ingest_duplicate",
                               ledger=self.counters, severity="debug",
                               beacon=self.beacon_id, t=s.timestamp)
                    continue
                self.rss.append(s)
                taken += 1
                continue
            if self._is_duplicate(s):
                obs.signal("service.ingest_duplicate", ledger=self.counters,
                           severity="debug", beacon=self.beacon_id,
                           t=s.timestamp)
                continue
            self.rss.insert_by(s, key=lambda x: x.timestamp)
            taken += 1
            obs.signal("service.ingest_reordered", ledger=self.counters,
                       severity="debug", beacon=self.beacon_id,
                       t=s.timestamp, behind_s=last.timestamp - s.timestamp)
        return taken

    def _is_duplicate(self, s: RssiSample) -> bool:
        """Is an identical sample (t, rssi, channel) already buffered?

        Only called off the fast path (``s.timestamp <=`` buffer head), so
        the scan it does is proportional to how disordered the stream
        actually is, not to its rate.
        """
        return any(
            b.timestamp == s.timestamp
            and b.rssi == s.rssi
            and b.channel == s.channel
            for b in self.rss
            if b.timestamp == s.timestamp
        )

    # -- the supervised solve loop ------------------------------------------

    def begin_step(self, t: float, imu: ImuTick) -> Optional[PendingSolve]:
        """First third of a step: gating plus solve preparation.

        Ages the buffer out, then decides whether this tick solves: not
        before the solve period has passed, not while the breaker holds
        solves back (``solves_shed``), and not when the pipeline finds the
        window short of data (``solves_skipped_nodata``, with the failed
        rule as ``reason``). A shed or a data shortage leaves the breaker
        and the solve schedule untouched; any other preparation failure is
        a solve failure. Otherwise returns a :class:`PendingSolve`, counted
        in ``solves_attempted``, whose request joins the service-wide
        :func:`~repro.core.estimator.fit_batch`. The caller must finish the
        tick with :meth:`resolve_solve` (when pending) and
        :meth:`finish_step`. Never raises on data; caller bugs (a
        non-finite ``t``, or an ``imu`` tick opened for another time) still
        raise.
        """
        if not math.isfinite(t):
            raise ConfigurationError("step time must be finite")
        if imu.t != t:
            raise ConfigurationError(
                f"IMU tick is for t={imu.t}, not the step time t={t}")
        self._age_out(t)
        if (self.last_solve_t is not None
                and t - self.last_solve_t < self.config.solve_period_s):
            return None
        if not self.breaker.allow(t):
            obs.signal("service.solves_shed", ledger=self.counters,
                       beacon=self.beacon_id, t=t,
                       breaker_state=self.breaker.state)
            return None
        try:
            prepared = self.pipeline.prepare_estimate(
                self._window(t), imu.window(self.config.window_s),
                tracks=imu.tracks, anf_stream=self._anf)
        except InsufficientDataError as exc:
            obs.signal("service.solves_skipped_nodata", ledger=self.counters,
                       severity="debug", beacon=self.beacon_id, t=t,
                       reason=str(exc))
            return None
        except (DataQualityError, EstimationError) as exc:
            self._solve_failed(t, exc)
            self.last_solve_t = t
            return None
        except BaseException:
            self.last_solve_t = t
            raise
        self._anf = prepared.anf_stream
        request = prepared.request(warm=self._usable_warm(t))
        obs.signal("service.solves_attempted", ledger=self.counters,
                   severity="debug", beacon=self.beacon_id, t=t)
        return PendingSolve(t=t, prepared=prepared, request=request)

    def resolve_solve(
        self, pending: PendingSolve, fit: "FitResult | BaseException"
    ) -> None:
        """Second third of a step: consume the batched fit result.

        ``fit`` is this session's slot from ``fit_batch(...,
        return_exceptions=True)`` — either a
        :class:`~repro.core.estimator.FitResult` or the exception its solve
        raised. Books a failure on the breaker, or accepts the fix into the
        tracker with its provenance.
        """
        t = pending.t
        try:
            if isinstance(fit, BaseException):
                raise fit
            est = self.pipeline.complete_estimate(pending.prepared, fit)
            self.tracker.update(t, est)
        except (DataQualityError, InsufficientDataError, EstimationError) as exc:
            self._solve_failed(t, exc)
        else:
            self._solve_succeeded(t, est)
        finally:
            self.last_solve_t = t

    def finish_step(self, t: float) -> SessionSnapshot:
        """Last third of a step: health tick, LOST handling, and the snapshot.

        The snapshot's ``track`` is the Kalman belief at ``t`` — coasted
        via ``predict`` when no fresh fix was accepted.
        """
        prev_state = self.health.state
        self.health.on_tick(t)
        if (self.health.state == SessionState.LOST
                and prev_state != SessionState.LOST):
            # The coasted belief stopped meaning anything; drop the track
            # so a later re-acquisition starts from the fresh fix.
            self.tracker = self._new_tracker()
            self.last_estimate = None
            obs.signal("service.tracks_dropped", ledger=self.counters,
                       severity="warning", beacon=self.beacon_id, t=t,
                       fix_age_s=self.health.fix_age(t))

        return self._snapshot(t)

    # -- solve outcome handlers -------------------------------------------------

    def _solve_failed(self, t: float, exc: Exception) -> None:
        """Every solve failure is one breaker failure. Degenerate geometry
        counts as ``solves_degenerate``, any other failure as
        ``solves_transient_failures``. A data shortage that escapes
        :meth:`begin_step` is a bug, still typed, and lands in the second."""
        fields = dict(ledger=self.counters, severity="warning",
                      beacon=self.beacon_id, t=t,
                      error=f"{type(exc).__name__}: {exc}")
        if isinstance(exc, DegenerateGeometryError):
            obs.signal("service.solves_degenerate", **fields)
        else:
            obs.signal("service.solves_transient_failures", **fields)
        self.breaker.record_failure(t)

    def _solve_succeeded(self, t: float, est: LocationEstimate) -> None:
        self.breaker.record_success(t)
        self.last_estimate = est
        self._store_warm(t, est)
        good = self._fix_quality(est)
        self.health.on_fix(t, good)
        self._signal_fix(t, est, good)
        if not good:
            obs.signal("service.fixes_degraded", ledger=self.counters,
                       severity="debug", beacon=self.beacon_id, t=t)

    # -- warm-start state -----------------------------------------------------

    def _usable_warm(self, t: float) -> Optional[WarmStartState]:
        """The carried warm state, unless aged out."""
        if self._warm is None:
            return None
        born = self._warm.stream_t
        if born is not None and t - born > WARM_MAX_AGE_S:
            return None
        return self._warm

    def _store_warm(self, t: float, est: LocationEstimate) -> None:
        warm = getattr(est.diagnostics, "warm", None)
        if warm is None:
            self._warm = None
        else:
            self._warm = dataclasses.replace(warm, stream_t=t)

    def _signal_fix(
        self, t: float, est: LocationEstimate, good: bool
    ) -> None:
        """Signal the accepted fix, its completed provenance as the fields.

        The ``service.fixes_accepted`` event carries the stream layer of
        the fix's :class:`FixProvenance` on top of the solver and pipeline
        layers.
        """
        prov = getattr(est.diagnostics, "provenance", None)
        if prov is None:
            prov = FixProvenance()  # pipeline predates provenance: still loud
        prov = prov.with_stream(
            beacon_id=self.beacon_id,
            stream_t=t,
            buffered=len(self.rss),
            shed=self.rss.shed,
            degraded=not good,
        )
        obs.signal("service.fixes_accepted", ledger=self.counters,
                   **prov.to_fields())

    def _fix_quality(self, est: LocationEstimate) -> bool:
        """Is this accepted fix *good* (vs merely usable)?

        Driven by the estimate's confidence and its
        :class:`~repro.robustness.EstimateDiagnostics`: a fallback result or
        a fresh EnvAware regression restart marks the fix degraded — the
        regression is warming up again and its output is not yet trusted.
        """
        diag = est.diagnostics
        if diag is not None and getattr(diag, "fallback", None) is not None:
            return False
        env_restart = False
        changes = tuple(getattr(diag, "env_changes", ()) or ()) if diag else ()
        if changes:
            newest = max(changes)
            if (self._last_env_change_t is None
                    or newest > self._last_env_change_t):
                env_restart = True
                self._last_env_change_t = newest
        if env_restart:
            return False
        return est.confidence >= self.config.min_confidence

    def _restore_anf(self, d: Any, ring: Any) -> Optional[AnfStream]:
        if d is None:
            return None
        anf = getattr(self.pipeline, "anf", None)
        if anf is None:
            raise DataQualityError(
                "session checkpoint carries a noise-filter stream, but its "
                "pipeline has no noise filter")
        return anf.restore_stream(d, ring)

    # -- windows -------------------------------------------------------------

    def _age_out(self, t: float) -> None:
        horizon = t - self.config.window_s
        self.rss.drop_while(lambda s: s.timestamp < horizon)

    def _window(self, t: float) -> RssiTrace:
        return RssiTrace([s for s in self.rss if s.timestamp <= t])

    # -- reporting -----------------------------------------------------------

    def _snapshot(self, t: float) -> SessionSnapshot:
        track: Optional[TrackState] = None
        if (self.tracker.initialized
                and self.health.state != SessionState.LOST):
            track = self.tracker.predict(t)
        return SessionSnapshot(
            beacon_id=self.beacon_id,
            t=t,
            state=self.health.state,
            breaker_state=self.breaker.state,
            fix_age_s=self.health.fix_age(t),
            track=track,
            estimate=self.last_estimate,
            buffered=len(self.rss),
            shed=self.rss.shed,
        )

    # -- persistence ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """The complete session state as a JSON-safe dict.

        Covers the Kalman state/covariance, the RSS ring buffer and its ANF
        stream, breaker state, the health machine, counters, and the solve
        schedule —
        everything needed for :meth:`restore` to continue bit-identically.
        """
        rss = self.rss.items()
        return {
            "format": SESSION_CHECKPOINT_FORMAT,
            "beacon_id": self.beacon_id,
            "config": self.config.to_dict(),
            "tracker": self.tracker.checkpoint(),
            "health": self.health.checkpoint(),
            "breaker": self.breaker.checkpoint(),
            "rss": [[s.timestamp, s.rssi, s.channel] for s in rss],
            "rss_shed": self.rss.shed,
            "last_solve_t": self.last_solve_t,
            "last_env_change_t": self._last_env_change_t,
            "counters": dict(self.counters),
            # Warm-start state: floats round-trip bit-exactly through JSON
            # (repr-based), so a restored session's next warm solve is
            # bit-identical to the uninterrupted one.
            "warm": None if self._warm is None else self._warm.to_dict(),
            # The noise filter's stream: each RSS sample is filtered once,
            # so a resumed session must carry on from the same state. Its
            # samples are ring rows unless sanitizing changed them.
            "anf": (None if self._anf is None
                    else self._anf.to_dict(_ring_arrays(rss))),
        }

    @classmethod
    def restore(
        cls,
        cp: Dict[str, Any],
        pipeline_factory: PipelineFactory = default_pipeline_factory,
    ) -> "TrackingSession":
        """Rebuild a session from a :meth:`checkpoint` dict.

        ``pipeline_factory`` must rebuild the same estimation pipeline the
        checkpointed session ran (pipelines hold trained models and are not
        serialized); the default repair-mode factory matches the default
        construction path. A checkpoint written while sessions had a retry
        backoff carries its state under ``"backoff"``; it is ignored, so a
        pending retry delay is dropped and the session solves at its next
        due tick. One written before sessions carried their noise filter's
        stream has no ``"anf"``; it restores with none, and the session's
        next solve filters its window from rest.
        """
        if not isinstance(cp, dict) or cp.get("format") != SESSION_CHECKPOINT_FORMAT:
            raise DataQualityError("unsupported session checkpoint")
        with restore_guard("session"):
            session = cls(
                str(cp["beacon_id"]),
                config=SessionConfig.from_dict(cp["config"]),
                pipeline_factory=pipeline_factory,
            )
            session.tracker = BeaconTracker.restore(cp["tracker"])
            session.health = HealthMachine.restore(
                cp["health"], session.config.health
            )
            session.breaker = CircuitBreaker.restore(
                cp["breaker"], session.config.breaker
            )
            for row in cp["rss"]:
                t, rssi, channel = row
                session.rss.append(
                    RssiSample(float(t), float(rssi), session.beacon_id,
                               int(channel))
                )
            session.rss.shed = int(cp["rss_shed"])
            last = cp["last_solve_t"]
            session.last_solve_t = None if last is None else float(last)
            env_t = cp["last_env_change_t"]
            session._last_env_change_t = (
                None if env_t is None else float(env_t)
            )
            session.counters.update(
                {str(k): int(v) for k, v in cp["counters"].items()}
            )
            warm = cp.get("warm")  # absent in pre-warm-start checkpoints
            session._warm = (
                None if warm is None else WarmStartState.from_dict(warm)
            )
            session._anf = session._restore_anf(
                cp.get("anf"), _ring_arrays(session.rss.items()))
        obs.signal("service.restores", beacon=session.beacon_id,
                   buffered=len(session.rss),
                   last_solve_t=session.last_solve_t)
        return session
