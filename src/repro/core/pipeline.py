"""Algorithm 1: the end-to-end LocBLE estimation pipeline.

Wires the pieces together exactly in the paper's order (Sec. 5.3): per
2–3 s data batch, (1) detect the observer's (and target's) movement, (2)
match movement to RSS by timestamp, (3) classify the environment and filter
the noise, (4) append to the running regression — or start a new one if the
environment changed abruptly — and (5) refresh the location estimate and
its probability.

The paper's design elements are removable for the ablation experiments:
EnvAware and its environment-informed priors run exactly when an
``envaware`` classifier is given (Fig. 5 passes none), and the ``anf``
stages switch off one by one (Fig. 4/5).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro import obs, perf
from repro.channel.pathloss import distance_for_rss
from repro.core.anf import AdaptiveNoiseFilter, AnfStream
from repro.core.confidence import estimation_confidence
from repro.core.envaware import EnvAwareClassifier, EnvironmentMonitor
from repro.core.estimator import (
    MIN_SAMPLES,
    EllipticalEstimator,
    FitRequest,
    FitResult,
    WarmStartState,
)
from repro.errors import (
    ConfigurationError,
    DataQualityError,
    EstimationError,
    InsufficientDataError,
)
from repro.motion.deadreckoning import MotionTrack, MotionTracker, TrackMemo
from repro.obs.provenance import FixProvenance
from repro.robustness.diagnostics import EstimateDiagnostics
from repro.robustness.sanitize import (
    SanitizationReport,
    check_trace,
    robust_rate_hz,
    sanitize_trace,
)
from repro.types import EnvClass, ImuTrace, LocationEstimate, RssiTrace, Vec2

__all__ = ["LocBLE", "EstimationContext", "PreparedEstimate"]

#: Roughly one batch per the paper's "2–3 seconds ... approximately 20 RSS
#: samples per data batch" at 8–9 Hz sampling.
DEFAULT_BATCH_S = 2.0

#: RSS samples an EnvAware batch needs before the monitor judges it.
MONITOR_MIN_SAMPLES = 4

#: The shortest ``batch_s`` accepted: four advertising intervals at BLE's
#: 20 ms minimum, about the least time that holds the monitor's four
#: samples at the fastest advertising rate. A far smaller value would not
#: even advance the segmentation clock (``t += batch_s`` is lost below the
#: float spacing at ``t``).
MIN_BATCH_S = MONITOR_MIN_SAMPLES * 0.020


@dataclass
class EstimationContext:
    """Intermediate pipeline state exposed for experiments and debugging.

    The matched rows cover the active regression segment only: everything
    from ``segment_start_index`` (the last confirmed environment change, or
    0) to the end of the sanitized trace, with the RSS ANF-filtered.

    ``anf_stream`` is the session's ANF stream advanced over this window
    (:meth:`LocBLE.prepare_estimate`; ``None`` for a stateless estimate).

    ``observer_track`` is the dead-reckoned walk whose frame the rows live
    in (``None`` in moving-target mode, where the frame also moves with
    the target) and ``ref_t`` the newest matched RSS time: a fit's warm
    state records the observer's pose at ``ref_t`` so the next window can
    carry it into its own frame (:meth:`reanchor`).
    """

    matched_p: np.ndarray
    matched_q: np.ndarray
    matched_rss: np.ndarray
    segment_start_index: int
    env_class: str
    env_changes: List[float] = field(default_factory=list)
    fit: Optional[FitResult] = None
    sanitization: Optional[SanitizationReport] = None
    observer_track: Optional[MotionTrack] = None
    ref_t: float = math.nan
    anf_stream: Optional[AnfStream] = None

    def reanchor(self, warm: Optional[WarmStartState]
                 ) -> Optional[WarmStartState]:
        """``warm`` with its position seed moved into this window's frame.

        The seed keeps its place relative to the observer's pose at the
        state's ``ref_t``, read from this window's track. It is used
        unshifted when the state carries no finite pose (older checkpoints)
        or this window's track does not span its ``ref_t``.
        """
        track = self.observer_track
        if warm is None or track is None:
            return warm
        pose = (warm.ref_t, warm.ref_x, warm.ref_y, warm.ref_heading)
        if (not all(v is not None and math.isfinite(v) for v in pose)
                or not track.times[0] <= warm.ref_t <= self.ref_t):
            return warm
        return warm.reanchored(*track.pose_at(warm.ref_t))

    def posed(self, warm: Optional[WarmStartState]
              ) -> Optional[WarmStartState]:
        """A fit's warm state with the observer's pose at ``ref_t``."""
        if warm is None or self.observer_track is None:
            return warm
        return warm.at_pose(self.ref_t,
                            *self.observer_track.pose_at(self.ref_t))


@dataclass
class PreparedEstimate:
    """A solve-ready pipeline context for cross-session batching.

    Produced by :meth:`LocBLE.prepare_estimate`; its :meth:`request` feeds
    :func:`repro.core.estimator.fit_batch` and the resulting
    :class:`~repro.core.estimator.FitResult` goes back through
    :meth:`LocBLE.complete_estimate`. ``estimator`` is already
    environment-resolved, so the batched solve applies exactly the priors a
    sequential :meth:`LocBLE.estimate` would. ``anf_stream`` is the
    caller's ANF stream advanced over this window, for it to carry to the
    next one.
    """

    ctx: EstimationContext
    estimator: EllipticalEstimator

    @property
    def anf_stream(self) -> Optional[AnfStream]:
        return self.ctx.anf_stream

    def request(self, warm: Optional[WarmStartState] = None) -> FitRequest:
        """The solve request, ``warm`` re-anchored into this window's frame
        (:meth:`EstimationContext.reanchor`)."""
        return FitRequest(
            p=self.ctx.matched_p,
            q=self.ctx.matched_q,
            rss=self.ctx.matched_rss,
            warm=self.ctx.reanchor(warm),
            estimator=self.estimator,
        )


@dataclass
class LocBLE:
    """The LocBLE application core, configured per measurement session.

    Feed a whole recorded session to :meth:`estimate`. Streaming serving
    (the paper's per-batch refresh, Sec. 5.3) goes through
    :meth:`prepare_estimate` / :meth:`complete_estimate`, one batched solve
    per tick with warm state carried by the session;
    :meth:`estimate_series` is :meth:`estimate` over growing prefixes.

    With an ``envaware`` classifier, EnvAware monitors ``batch_s``-second
    batches with the :class:`~repro.core.envaware.EnvironmentMonitor`
    default hysteresis, a confirmed environment change restarts the
    regression at that batch, and the fit takes the recognised class's
    priors. Without one the whole window is one LOS-labelled regression
    under the estimator's own priors.
    """

    envaware: Optional[EnvAwareClassifier] = None
    anf: AdaptiveNoiseFilter = field(default_factory=AdaptiveNoiseFilter)
    estimator: EllipticalEstimator = field(default_factory=EllipticalEstimator)
    motion_tracker: MotionTracker = field(default_factory=MotionTracker)
    batch_s: float = DEFAULT_BATCH_S
    #: Input-trace policy: ``"strict"`` rejects malformed traces with a
    #: typed :class:`~repro.errors.DataQualityError`; ``"repair"`` routes
    #: them through :func:`repro.robustness.sanitize_trace` and carries the
    #: report on the estimate's diagnostics. Fault-injection sweeps run in
    #: repair mode; interactive use keeps strict so bad logs surface loudly.
    sanitize: str = "strict"

    def __post_init__(self) -> None:
        if self.sanitize not in ("strict", "repair"):
            raise ConfigurationError(
                f"sanitize must be 'strict' or 'repair', got {self.sanitize!r}"
            )
        if not (math.isfinite(self.batch_s)
                and self.batch_s >= MIN_BATCH_S):
            raise ConfigurationError(
                f"batch_s must be finite and >= {MIN_BATCH_S:g} s, "
                f"got {self.batch_s!r}"
            )

    # -- public API ---------------------------------------------------------

    @perf.profiled("pipeline.LocBLE.estimate")
    def estimate(
        self,
        rssi_trace: RssiTrace,
        observer_imu: ImuTrace,
        target_imu: Optional[ImuTrace] = None,
        warm: Optional[WarmStartState] = None,
        tracks: Optional[TrackMemo] = None,
    ) -> LocationEstimate:
        """Estimate the beacon's position in the measurement frame.

        ``target_imu`` enables the moving-target mode (Sec. 5): the target
        records its own motion and "sends measurement data to the observer
        for processing"; frames are reconciled through each device's
        magnetic heading.

        ``warm`` (typically the previous overlapping window's
        ``diagnostics.warm``) routes the solve through the estimator's
        warm-start fast path, its seed re-anchored into this window's frame
        (:meth:`EstimationContext.reanchor`); a stale warm state is rejected
        and re-solved cold, so it can only cost latency, never accuracy.

        ``tracks`` lets callers that solve many beacons against one
        observer IMU window dead-reckon it once: the observer track comes
        from the memo instead of a fresh ``motion_tracker.track`` call.
        """
        ctx = self._build_context(rssi_trace, observer_imu, target_imu,
                                  tracks=tracks)
        return self._estimate_from_context(ctx, warm=warm)

    def prepare_estimate(
        self,
        rssi_trace: RssiTrace,
        observer_imu: ImuTrace,
        target_imu: Optional[ImuTrace] = None,
        tracks: Optional[TrackMemo] = None,
        anf_stream: Optional[AnfStream] = None,
    ) -> PreparedEstimate:
        """Run every pipeline stage up to (but not including) the solve.

        The cross-session batching path: N sessions each prepare their
        context, the service stacks the resulting requests into one
        :func:`repro.core.estimator.fit_batch` call, and each
        :class:`~repro.core.estimator.FitResult` comes back through
        :meth:`complete_estimate`. ``prepare + fit_batch + complete`` is
        numerically identical to :meth:`estimate` per session;
        ``tracks`` is as in :meth:`estimate`. A window without enough data
        (too few samples after sanitizing, or failing
        :meth:`~repro.core.estimator.EllipticalEstimator.check_sufficient`)
        raises :class:`~repro.errors.InsufficientDataError` here, so its
        request never joins a batch.

        Noise filtering runs as a stream (:meth:`AdaptiveNoiseFilter.stream
        <repro.core.anf.AdaptiveNoiseFilter.stream>`): ``anf_stream``, the
        one the caller carried from its previous window, is advanced over
        this window's new samples and handed back as
        :attr:`PreparedEstimate.anf_stream`. Without one the window is
        filtered from rest, exactly as :meth:`estimate` filters it.
        """
        ctx = self._build_context(rssi_trace, observer_imu, target_imu,
                                  tracks=tracks, carry_anf=True,
                                  anf_stream=anf_stream)
        return PreparedEstimate(ctx=ctx, estimator=self._resolve_estimator(ctx))

    def complete_estimate(
        self, prepared: PreparedEstimate, fit: FitResult
    ) -> LocationEstimate:
        """Turn a batched solve's :class:`FitResult` into the estimate."""
        confidence = estimation_confidence(fit.residuals)
        return self._finish_estimate(prepared.ctx, fit, confidence)

    def estimate_all(
        self,
        rssi_traces: "dict[str, RssiTrace]",
        observer_imu: ImuTrace,
    ) -> "dict[str, LocationEstimate]":
        """Estimate every audible beacon from one session's traces.

        Beacons whose trace is too poor to estimate are simply omitted —
        a multi-beacon scan routinely contains marginal strays.
        """
        out: "dict[str, LocationEstimate]" = {}
        for beacon_id, trace in rssi_traces.items():
            try:
                out[beacon_id] = self.estimate(trace, observer_imu)
            except (ConfigurationError, InsufficientDataError,
                    EstimationError) as exc:
                obs.signal("pipeline.beacons_skipped", beacon=str(beacon_id),
                           reason=type(exc).__name__)
                continue
        return out

    @perf.profiled("pipeline.LocBLE.estimate_series")
    def estimate_series(
        self,
        rssi_trace: RssiTrace,
        observer_imu: ImuTrace,
        times: List[float],
    ) -> List[Tuple[float, LocationEstimate]]:
        """Re-estimate at each requested time using only data seen so far.

        Powers the navigation experiments (Fig. 12b): the estimate sharpens
        as the observer approaches and more data accumulates. Each step is
        exactly :meth:`estimate` on the RSS and IMU prefixes up to that
        time. Times where too little data exists are skipped.
        """
        out: List[Tuple[float, LocationEstimate]] = []
        imu_ts = [s.timestamp for s in observer_imu.samples]
        for t in times:
            partial = rssi_trace.slice_time(-math.inf, t)
            imu_partial = ImuTrace(
                observer_imu.samples[:bisect_right(imu_ts, t)]
            )
            try:
                out.append((t, self.estimate(partial, imu_partial)))
            except (InsufficientDataError, EstimationError):
                # A prefix can be unobservable (standstill start, degenerate
                # geometry) even when later prefixes estimate fine; skip it
                # rather than abort the series.
                continue
        return out

    def estimate_robust(
        self,
        rssi_trace: RssiTrace,
        observer_imu: ImuTrace,
        target_imu: Optional[ImuTrace] = None,
    ) -> LocationEstimate:
        """Estimate with graceful degradation: data pathologies never raise.

        The trace is first repaired by
        :func:`repro.robustness.sanitize_trace`; if the full pipeline then
        refuses (too few surviving samples, degenerate geometry, no valid
        solve), a *fallback estimate* is returned instead of an exception: a
        proximity-style range from the median surviving RSS at the
        estimator's prior parameters, bearing unknown, with
        ``confidence = 0.0`` and an
        :class:`~repro.robustness.EstimateDiagnostics` explaining the
        failure. Caller bugs (mismatched IMU types, bad configuration)
        still raise — only *data* problems degrade.
        """
        clean, report = sanitize_trace(rssi_trace)
        try:
            ctx = self._build_context(clean, observer_imu, target_imu)
            ctx.sanitization = report
            return self._estimate_from_context(ctx)
        except (DataQualityError, InsufficientDataError, EstimationError) as exc:
            return self._fallback_estimate(clean, report, exc)

    def _fallback_estimate(
        self,
        trace: RssiTrace,
        report: SanitizationReport,
        exc: Exception,
    ) -> LocationEstimate:
        """Diagnostic-bearing zero-confidence result when the fit refused.

        With any usable RSS at all, the median reading inverted at the
        estimator's prior (Γ, n) gives a coarse range; the bearing is
        unknowable without geometry, so the position sits on the +x axis
        and ``position_std`` is set to the range itself — downstream
        1/var weighting then effectively ignores it.
        """
        vals = trace.values() if len(trace) else np.empty(0)
        finite = vals[np.isfinite(vals)]
        failure = f"{type(exc).__name__}: {exc}"

        def fallback_provenance(tag: str, n_used: int) -> FixProvenance:
            obs.signal("pipeline.fallbacks", severity="warning", fallback=tag,
                       failure=failure, n_samples=n_used)
            return FixProvenance(
                solver="fallback",
                n_samples=n_used,
                sanitized_dropped=report.n_dropped,
                sanitized_repaired=not report.clean,
                confidence=0.0,
                fallback=tag,
            )

        if finite.size == 0:
            return LocationEstimate(
                position=Vec2(float("nan"), float("nan")),
                confidence=0.0,
                diagnostics=EstimateDiagnostics(
                    sanitization=report,
                    fallback="no-data",
                    failure=failure,
                    n_samples_used=0,
                    provenance=fallback_provenance("no-data", 0),
                ),
            )
        gamma = self.estimator.gamma_prior
        gamma = float(gamma) if gamma is not None else -59.0
        n = self.estimator.n_prior
        n = float(n) if n is not None else 2.0
        d = min(float(distance_for_rss(float(np.median(finite)), gamma, n)),
                30.0)
        return LocationEstimate(
            position=Vec2(d, 0.0),
            confidence=0.0,
            gamma=gamma,
            n=n,
            position_std=d,
            diagnostics=EstimateDiagnostics(
                sanitization=report,
                fallback="range-only",
                failure=failure,
                n_samples_used=int(finite.size),
                provenance=fallback_provenance("range-only", int(finite.size)),
            ),
        )

    # -- pipeline stages ------------------------------------------------------

    def _build_context(
        self,
        rssi_trace: RssiTrace,
        observer_imu: ImuTrace,
        target_imu: Optional[ImuTrace],
        tracks: Optional[TrackMemo] = None,
        carry_anf: bool = False,
        anf_stream: Optional[AnfStream] = None,
    ) -> EstimationContext:
        report: Optional[SanitizationReport] = None
        if self.sanitize == "repair":
            rssi_trace, report = sanitize_trace(rssi_trace)
        if len(rssi_trace) < MIN_SAMPLES:
            raise InsufficientDataError(
                f"trace has {len(rssi_trace)} samples; "
                f"need >= {MIN_SAMPLES}"
            )
        if report is None:
            check_trace(rssi_trace, context="trace")

        # Step 1 — movement detection (observer, and target if moving).
        if tracks is None:
            observer_track = self.motion_tracker.track(observer_imu)
        else:
            observer_track = tracks.track(self.motion_tracker, observer_imu)
        target_track = None
        frame_rotation = 0.0
        if target_imu is not None:
            target_track = self.motion_tracker.track(target_imu)
            frame_rotation = self._frame_rotation(observer_imu, target_imu)

        # Step 2 — match movement to RSS data by timestamp (vectorized).
        ts = rssi_trace.timestamps()
        raw_rss = rssi_trace.values()
        p, q = self._matched_pq(ts, observer_track, target_track,
                                frame_rotation)

        # Step 3a — environment classification over batches.
        env_class = EnvClass.LOS
        seg_start = 0
        changes: List[float] = []
        if self.envaware is not None:
            env_class, seg_start, changes = self._segment_by_environment(
                ts, raw_rss
            )
        if seg_start > 0:
            # A regression needs movement, not just samples: if the walk was
            # essentially over by the time the change was confirmed, keep
            # the whole trace rather than regress on a standstill tail.
            span = max(float(np.ptp(p[seg_start:])), float(np.ptp(q[seg_start:])))
            if span < 0.5:
                obs.signal("pipeline.env_restart_suppressed",
                           severity="debug", segment_start=seg_start,
                           movement_span_m=span)
                seg_start = 0
                changes = []
            else:
                obs.signal("pipeline.env_restarts", env=str(env_class),
                           segment_start=seg_start,
                           at=changes[-1] if changes else None)
        # The fit's sufficiency rule on the rows it will get: a window
        # without enough data fails here, before filtering and the solve.
        self.estimator.check_sufficient(p[seg_start:], q[seg_start:])

        # Step 3b — adaptive noise filtering on the active regression
        # segment only: filtering across an environment change would smear
        # the pre-change RSS level into the fresh regression's data. A
        # repaired window's report already holds the same rate.
        fs = robust_rate_hz(ts) if report is None else report.rate_hz
        if fs <= 0:
            raise DataQualityError(
                "trace timestamps span zero duration; cannot derive a "
                "sampling rate for noise filtering"
            )
        if carry_anf:
            filtered, anf_stream = self.anf.stream(
                ts[seg_start:], raw_rss[seg_start:], fs, anf_stream,
                restart=seg_start > 0)
        else:
            filtered = self.anf.apply(raw_rss[seg_start:], fs)

        return EstimationContext(
            matched_p=p[seg_start:],
            matched_q=q[seg_start:],
            matched_rss=filtered,
            segment_start_index=seg_start,
            env_class=env_class,
            env_changes=changes,
            sanitization=report,
            observer_track=observer_track if target_track is None else None,
            ref_t=float(ts[-1]),
            anf_stream=anf_stream,
        )

    @staticmethod
    def _matched_pq(
        ts: np.ndarray,
        observer_track,
        target_track,
        frame_rotation: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Relative beacon displacement (p, q) at each RSS timestamp."""
        a = observer_track.displacements_at(ts)
        if target_track is None:
            return -a[:, 0], -a[:, 1]
        b = target_track.displacements_at(ts)
        c, s = math.cos(frame_rotation), math.sin(frame_rotation)
        bx = c * b[:, 0] - s * b[:, 1]
        by = s * b[:, 0] + c * b[:, 1]
        return bx - a[:, 0], by - a[:, 1]

    def _resolve_estimator(self, ctx: EstimationContext) -> EllipticalEstimator:
        """The estimator this context solves with (environment priors applied)."""
        estimator = self.estimator
        if self.envaware is not None:
            estimator = estimator.with_environment(ctx.env_class)
        return estimator

    def _estimate_from_context(
        self,
        ctx: EstimationContext,
        warm: Optional[WarmStartState] = None,
    ) -> LocationEstimate:
        estimator = self._resolve_estimator(ctx)
        with obs.span(
            "estimator.solve", component="pipeline", env=ctx.env_class
        ) as sp:
            fit = estimator.fit(ctx.matched_p, ctx.matched_q, ctx.matched_rss,
                                warm=ctx.reanchor(warm))
            confidence = estimation_confidence(fit.residuals)
            sp.annotate(solver=fit.solver, cov_status=fit.cov_status,
                        confidence=confidence)
        return self._finish_estimate(ctx, fit, confidence)

    def _finish_estimate(
        self, ctx: EstimationContext, fit: FitResult, confidence: float
    ) -> LocationEstimate:
        ctx.fit = fit
        ambiguous = (fit.mirror,) if fit.mirror is not None else ()
        diagnostics = EstimateDiagnostics(
            sanitization=ctx.sanitization,
            n_samples_used=int(len(ctx.matched_rss)),
            env_changes=tuple(ctx.env_changes),
            provenance=self._provenance(ctx, fit, confidence),
            warm=ctx.posed(fit.warm),
        )
        return LocationEstimate(
            position=fit.position,
            confidence=confidence,
            gamma=fit.gamma,
            n=fit.n,
            environment=ctx.env_class,
            ambiguous=ambiguous,
            position_std=fit.position_std,
            diagnostics=diagnostics,
        )

    @staticmethod
    def _provenance(
        ctx: EstimationContext, fit: FitResult, confidence: float
    ) -> FixProvenance:
        """The pipeline's layer of the per-fix provenance record."""
        report = ctx.sanitization
        dropped = repaired = 0
        if report is not None:
            dropped = report.n_dropped
            repaired = not report.clean
        pos_std = float(fit.position_std)
        return FixProvenance(
            solver=fit.solver,
            n_candidates=fit.n_candidates,
            cov_cond=fit.cov_cond,
            cov_status=fit.cov_status,
            warm_started=fit.warm_started,
            env_class=str(ctx.env_class),
            env_restarts=len(ctx.env_changes),
            n_samples=int(len(ctx.matched_rss)),
            sanitized_dropped=int(dropped),
            sanitized_repaired=bool(repaired),
            confidence=float(confidence),
            position_std=pos_std if math.isfinite(pos_std) else None,
            fallback=None,
        )

    def _segment_by_environment(
        self, ts: np.ndarray, rss: np.ndarray
    ) -> Tuple[str, int, List[float]]:
        """Monitor batches; return (current class, segment start idx, changes).

        The regression restarts at the *last* abrupt environment change
        (Sec. 5.3 step: "start a new regression with the data"), but never
        so late that fewer than :data:`~repro.core.estimator.MIN_SAMPLES`
        readings remain — a change in the final seconds cannot leave us
        with nothing to regress.
        """
        monitor = EnvironmentMonitor(self.envaware)
        seg_start = 0
        changes: List[float] = []
        t = float(ts[0])
        t_end = float(ts[-1])
        while t < t_end:
            mask = (ts >= t) & (ts < t + self.batch_s)
            idx = np.flatnonzero(mask)
            if len(idx) >= MONITOR_MIN_SAMPLES:
                changed = monitor.observe(rss[idx])
                if changed:
                    candidate = int(idx[0])
                    if len(ts) - candidate >= MIN_SAMPLES:
                        seg_start = candidate
                        changes.append(float(ts[candidate]))
            t += self.batch_s
        return monitor.current, seg_start, changes

    @staticmethod
    def _frame_rotation(
        observer_imu: ImuTrace, target_imu: ImuTrace, settle_s: float = 0.5
    ) -> float:
        """Rotation taking target-frame displacements into the observer frame.

        Each device's dead-reckoned frame is anchored at its own initial
        walking direction; the magnetometer gives both directions in a
        shared earth frame, so the difference of initial headings aligns
        them.
        """

        def initial_heading(imu: ImuTrace) -> float:
            t0 = imu.samples[0].timestamp
            hs = [
                s.mag_heading for s in imu.samples if s.timestamp <= t0 + settle_s
            ]
            return math.atan2(
                float(np.mean(np.sin(hs))), float(np.mean(np.cos(hs)))
            )

        return initial_heading(target_imu) - initial_heading(observer_imu)
