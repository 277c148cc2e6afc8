"""The multi-beacon supervised streaming tracking service.

:class:`TrackingService` is the process-level entry point the ROADMAP's
production system needs: many concurrent per-beacon
:class:`~repro.service.session.TrackingSession`\\ s fed from one scan/IMU
ingest path, stepped on a shared stream clock, checkpointed and restored as
a unit. Design rules:

* **Bounded everything.** The shared IMU buffer and every per-beacon RSS
  buffer are fixed-capacity drop-oldest rings; the session table itself is
  capped (``max_sessions``) with counted shedding of surplus beacons, so a
  beacon-spam storm degrades predictably instead of exhausting memory.
* **Deterministic supervision.** Sessions are stepped in sorted beacon-id
  order, retry jitter is hash-derived, and all clocks are stream time —
  a checkpoint/restore cycle replays bit-identically.
* **Typed failure only.** ``ingest_*``/``tick_batch`` never raise on data;
  every failure mode is a counted, supervised event reported through
  :mod:`repro.perf` and :meth:`stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from repro import obs, perf
from repro.core.estimator import fit_batch
from repro.errors import ConfigurationError, DataQualityError
from repro.service.buffers import BoundedBuffer
from repro.service.checkpoint import restore_guard
from repro.service.session import (
    ImuTick,
    PipelineFactory,
    SessionConfig,
    SessionSnapshot,
    TrackingSession,
    default_pipeline_factory,
)
from repro.types import ImuSample, ImuTrace, RssiSample

__all__ = ["ServiceConfig", "TrackingService"]

#: Checkpoint schema version written by :meth:`TrackingService.checkpoint`.
SERVICE_CHECKPOINT_FORMAT = 1

#: How many distinct refused beacon ids the service remembers for the
#: ``sessions_shed`` dedup. Beyond this (a beacon-id spam storm well past
#: the session cap) a repeat offender may be double counted rather than the
#: set growing without bound — "bounded everything" wins over exactness.
SHED_ID_MEMORY = 4096


@dataclass(frozen=True)
class ServiceConfig:
    """Capacity and supervision policy for the whole service.

    ``imu_buffer`` caps the shared observer-IMU ring (at 50 Hz the default
    holds ~5.5 minutes); ``imu_window_s`` ages IMU samples out once no
    session's solve window can reach them. ``max_sessions`` bounds the
    session table — scans for further beacons are shed (counted) rather
    than growing without limit.
    """

    session: SessionConfig = field(default_factory=SessionConfig)
    imu_buffer: int = 16384
    imu_window_s: float = 75.0
    max_sessions: int = 256

    def __post_init__(self) -> None:
        if self.imu_buffer < 2:
            raise ConfigurationError("imu_buffer must be >= 2")
        if not (math.isfinite(self.imu_window_s)
                and self.imu_window_s >= self.session.window_s):
            raise ConfigurationError(
                "imu_window_s must be finite and >= the session window"
            )
        if self.max_sessions < 1:
            raise ConfigurationError("max_sessions must be >= 1")


class TrackingService:
    """Supervises many concurrent per-beacon tracking sessions."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        pipeline_factory: PipelineFactory = default_pipeline_factory,
    ):
        self.config = config or ServiceConfig()
        self._pipeline_factory = pipeline_factory
        self.sessions: Dict[str, TrackingSession] = {}
        self.imu = BoundedBuffer[ImuSample](self.config.imu_buffer, name="imu")
        #: Distinct beacons refused at the session cap (not samples — see
        #: :attr:`shed_samples` for the sample count).
        self.sessions_shed = 0
        #: Scan samples dropped because their beacon was refused.
        self.shed_samples = 0
        self._shed_beacons: set = set()
        self.restores = 0

    # -- ingestion -----------------------------------------------------------

    def ingest_scans(self, samples: Iterable[RssiSample]) -> int:
        """Route scan samples to their beacon's session; returns how many
        were buffered.

        Unknown beacons get a fresh session — up to ``max_sessions``, beyond
        which their traffic is shed with a counted
        ``service.session_shed`` event. ``sessions_shed`` counts *distinct*
        refused beacons; ``shed_samples`` the samples dropped with them.
        """
        taken = 0
        by_beacon: Dict[str, list] = {}
        for s in samples:
            by_beacon.setdefault(s.beacon_id, []).append(s)
        for beacon_id in sorted(by_beacon):
            session = self.sessions.get(beacon_id)
            if session is None:
                if len(self.sessions) >= self.config.max_sessions:
                    n = len(by_beacon[beacon_id])
                    self.shed_samples += n
                    perf.count("service.shed_samples", n)
                    if beacon_id not in self._shed_beacons:
                        if len(self._shed_beacons) < SHED_ID_MEMORY:
                            self._shed_beacons.add(beacon_id)
                        self.sessions_shed += 1
                        perf.count("service.sessions_shed")
                    obs.emit(
                        "service.session_shed",
                        severity="warning",
                        component="service",
                        beacon=str(beacon_id),
                        samples=n,
                        max_sessions=self.config.max_sessions,
                    )
                    continue
                session = TrackingSession(
                    beacon_id,
                    config=self.config.session,
                    pipeline_factory=self._pipeline_factory,
                )
                self.sessions[beacon_id] = session
                perf.count("service.sessions_created")
            taken += session.ingest(by_beacon[beacon_id])
        return taken

    def ingest_imu(self, samples: Iterable[ImuSample]) -> int:
        """Buffer observer IMU samples shared by every session."""
        taken = 0
        for s in samples:
            if not math.isfinite(s.timestamp):
                perf.count("service.ingest_rejected")
                obs.emit(
                    "service.imu_rejected",
                    severity="warning",
                    component="service",
                    reason="nonfinite-timestamp",
                )
                continue
            self.imu.append(s)
            taken += 1
        return taken

    # -- stepping ------------------------------------------------------------

    @perf.profiled("service.TrackingService.tick_batch")
    def tick_batch(self, t: float) -> Dict[str, SessionSnapshot]:
        """Advance every session to stream time ``t``; per-beacon snapshots.

        Each due session prepares its solve
        (:meth:`TrackingSession.begin_step`), all prepared requests go
        through a single :func:`repro.core.estimator.fit_batch` call — one
        NumPy program for the whole tick instead of N Python solver loops —
        and the results are resolved back per session. Sessions are stepped
        in sorted beacon-id order (determinism), each against the shared
        IMU window. A single due session is simply a batch of one.
        """
        imu = self._imu_tick(t)
        pending = []
        for beacon_id in sorted(self.sessions):
            p = self.sessions[beacon_id].begin_step(t, imu)
            if p is not None:
                pending.append((self.sessions[beacon_id], p))

        if pending:
            fits = fit_batch([p.request for _, p in pending],
                             return_exceptions=True)
            perf.count("service.batch_solves", len(pending))
            for (session, p), fit in zip(pending, fits):
                session.resolve_solve(p, fit)

        out: Dict[str, SessionSnapshot] = {}
        for beacon_id in sorted(self.sessions):
            out[beacon_id] = self.sessions[beacon_id].finish_step(t)
        return out

    def _imu_tick(self, t: float) -> ImuTick:
        """Age the IMU buffer out to ``t`` and open the tick's shared view.

        Every session of the tick slices its window and takes its observer
        track from this one view, so both are computed once per distinct
        window and tracker configuration, not once per session.
        """
        if not math.isfinite(t):
            raise ConfigurationError("step time must be finite")
        horizon = t - self.config.imu_window_s
        self.imu.drop_while(lambda s: s.timestamp < horizon)
        return ImuTick(ImuTrace(self.imu.items()), t)

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Aggregated service health for dashboards and the soak harness."""
        counters: Dict[str, int] = {}
        for session in self.sessions.values():
            for name, value in session.counters.items():
                counters[name] = counters.get(name, 0) + value
        return {
            "sessions": len(self.sessions),
            "sessions_shed": self.sessions_shed,
            "shed_samples": self.shed_samples,
            "restores": self.restores,
            "imu": self.imu.stats(),
            "rss_shed": sum(s.rss.shed for s in self.sessions.values()),
            "states": {
                beacon_id: s.health.state
                for beacon_id, s in sorted(self.sessions.items())
            },
            "breakers": {
                beacon_id: s.breaker.state
                for beacon_id, s in sorted(self.sessions.items())
            },
            "counters": counters,
        }

    # -- persistence ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Serialize the whole service — sessions, buffers, shed counts —
        as one JSON-safe dict (see ``docs/streaming.md`` for the format and
        compatibility policy)."""
        return {
            "format": SERVICE_CHECKPOINT_FORMAT,
            "config": {
                "imu_buffer": self.config.imu_buffer,
                "imu_window_s": self.config.imu_window_s,
                "max_sessions": self.config.max_sessions,
                "session": self.config.session.to_dict(),
            },
            "imu": [
                [s.timestamp, s.accel, s.gyro_z, s.mag_heading]
                for s in self.imu
            ],
            "imu_shed": self.imu.shed,
            "sessions_shed": self.sessions_shed,
            "shed_samples": self.shed_samples,
            "shed_beacon_ids": sorted(self._shed_beacons),
            "restores": self.restores,
            "sessions": {
                beacon_id: session.checkpoint()
                for beacon_id, session in sorted(self.sessions.items())
            },
        }

    @classmethod
    def restore(
        cls,
        cp: Dict[str, Any],
        pipeline_factory: PipelineFactory = default_pipeline_factory,
    ) -> "TrackingService":
        """Rebuild a service from a :meth:`checkpoint` dict.

        A restored service continues bit-identically: feeding it the same
        future ingest/tick sequence yields the same snapshots an
        uninterrupted service would have produced.
        """
        if not isinstance(cp, dict) or cp.get("format") != SERVICE_CHECKPOINT_FORMAT:
            raise DataQualityError("unsupported service checkpoint")
        with restore_guard("service"):
            cfg = cp["config"]
            service = cls(
                ServiceConfig(
                    session=SessionConfig.from_dict(cfg["session"]),
                    imu_buffer=int(cfg["imu_buffer"]),
                    imu_window_s=float(cfg["imu_window_s"]),
                    max_sessions=int(cfg["max_sessions"]),
                ),
                pipeline_factory=pipeline_factory,
            )
            for row in cp["imu"]:
                t, accel, gyro_z, mag_heading = row
                service.imu.append(
                    ImuSample(float(t), float(accel), float(gyro_z),
                              float(mag_heading))
                )
            service.imu.shed = int(cp["imu_shed"])
            if "shed_samples" in cp:
                service.sessions_shed = int(cp["sessions_shed"])
                service.shed_samples = int(cp["shed_samples"])
                service._shed_beacons = {
                    str(b) for b in cp.get("shed_beacon_ids", ())
                }
            else:
                # Pre-split checkpoint: the old `sessions_shed` counted
                # samples, and the distinct-beacon count was never recorded.
                service.shed_samples = int(cp["sessions_shed"])
                service.sessions_shed = 0
            service.restores = int(cp["restores"]) + 1
            for beacon_id, session_cp in cp["sessions"].items():
                service.sessions[str(beacon_id)] = TrackingSession.restore(
                    session_cp, pipeline_factory=pipeline_factory
                )
        perf.count("service.service_restores")
        obs.emit(
            "service.restored",
            severity="info",
            component="service",
            sessions=len(service.sessions),
            restores=service.restores,
        )
        return service
