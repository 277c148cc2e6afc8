"""The multi-beacon supervised streaming tracking service.

:class:`TrackingService` is the process-level entry point the ROADMAP's
production system needs: many concurrent per-beacon
:class:`~repro.service.session.TrackingSession`\\ s fed from one scan/IMU
ingest path, stepped on a shared stream clock, checkpointed and restored as
a unit. Design rules:

* **Bounded everything.** The observer IMU ring and every per-beacon RSS
  buffer are fixed-capacity drop-oldest rings; the session table itself is
  capped (``max_sessions``) with counted shedding of surplus beacons, so a
  beacon-spam storm degrades predictably instead of exhausting memory.
* **Deterministic supervision.** Sessions are stepped in sorted beacon-id
  order and all clocks are stream time — a checkpoint/restore cycle
  replays bit-identically.
* **Typed failure only.** ``ingest_*``/``tick_batch`` never raise on data;
  every failure mode is a supervised :func:`repro.obs.signal`, also
  reported through :meth:`stats`.

A tick runs in three phases: :meth:`TrackingService.begin_tick` prepares
every due session's solve against the tick's :class:`ImuTick`,
:func:`solve_pending` runs one :func:`~repro.core.estimator.fit_batch`
over all of them, and :meth:`TrackingService.end_tick` resolves the fits
and finishes every session. :meth:`TrackingService.tick_batch` runs the
three on one service; a :class:`~repro.fleet.TrackingFleet` runs phase 1
and 3 on each shard's service around one phase 2 for all shards, and owns
the one IMU ring its shards' services do without.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs, perf
from repro.core.estimator import fit_batch
from repro.errors import ConfigurationError, DataQualityError
from repro.service.checkpoint import restore_guard
from repro.service.session import (
    ImuRing,
    ImuTick,
    PendingSolve,
    PipelineFactory,
    SessionConfig,
    SessionSnapshot,
    TrackingSession,
    default_pipeline_factory,
)
from repro.types import ImuSample, RssiSample

__all__ = ["ServiceConfig", "TrackingService", "solve_pending"]

#: Checkpoint schema version written by :meth:`TrackingService.checkpoint`.
SERVICE_CHECKPOINT_FORMAT = 1

#: How many distinct refused beacon ids the service remembers for the
#: ``sessions_shed`` dedup. Beyond this (a beacon-id spam storm well past
#: the session cap) a repeat offender may be double counted rather than the
#: set growing without bound — "bounded everything" wins over exactness.
SHED_ID_MEMORY = 4096

#: One tick's prepared solves on one service, in sorted beacon order.
Pending = List[Tuple[TrackingSession, PendingSolve]]


@dataclass(frozen=True)
class ServiceConfig:
    """Capacity and supervision policy for the whole service.

    ``imu_buffer`` caps the observer-IMU ring (at 50 Hz the default holds
    ~5.5 minutes); the ring ages samples out once they fall behind the
    session window, where no solve window can reach them. ``max_sessions``
    bounds the session table — scans for further beacons are shed
    (counted) rather than growing without limit.
    """

    session: SessionConfig = field(default_factory=SessionConfig)
    imu_buffer: int = 16384
    max_sessions: int = 256

    def __post_init__(self) -> None:
        if self.imu_buffer < 2:
            raise ConfigurationError("imu_buffer must be >= 2")
        if self.max_sessions < 1:
            raise ConfigurationError("max_sessions must be >= 1")


class TrackingService:
    """Supervises many concurrent per-beacon tracking sessions.

    ``own_imu=False`` builds a fleet shard's service: it holds no IMU ring,
    and its fleet hands each tick's :class:`ImuTick` to :meth:`begin_tick`.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        pipeline_factory: PipelineFactory = default_pipeline_factory,
        own_imu: bool = True,
    ):
        self.config = config or ServiceConfig()
        self._pipeline_factory = pipeline_factory
        self.sessions: Dict[str, TrackingSession] = {}
        self.imu: Optional[ImuRing] = (
            ImuRing(self.config.imu_buffer, self.config.session.window_s)
            if own_imu else None)
        #: Distinct beacons refused at the session cap (not samples — see
        #: :attr:`shed_samples` for the sample count).
        self.sessions_shed = 0
        #: Scan samples dropped because their beacon was refused.
        self.shed_samples = 0
        self._shed_beacons: set = set()
        self.restores = 0

    # -- ingestion -----------------------------------------------------------

    def admits(self, beacon_id: str) -> Optional[str]:
        """``None`` when scans for ``beacon_id`` would be taken, else the
        refusal reason: a beacon with a session is always admitted, and
        a new one only while the table is below ``max_sessions``."""
        if (beacon_id in self.sessions
                or len(self.sessions) < self.config.max_sessions):
            return None
        return "max_sessions"

    def ingest_scans(self, samples: Iterable[RssiSample]) -> int:
        """Route scan samples to their beacon's session; returns how many
        were buffered.

        Unknown beacons get a fresh session — up to ``max_sessions``, beyond
        which their traffic is shed and booked by :meth:`shed`.
        """
        taken = 0
        by_beacon: Dict[str, list] = {}
        for s in samples:
            by_beacon.setdefault(s.beacon_id, []).append(s)
        refused: Dict[str, int] = {}
        for beacon_id in sorted(by_beacon):
            batch = by_beacon[beacon_id]
            if self.admits(beacon_id) is not None:
                refused[beacon_id] = len(batch)
                continue
            session = self.sessions.get(beacon_id)
            if session is None:
                session = TrackingSession(
                    beacon_id,
                    config=self.config.session,
                    pipeline_factory=self._pipeline_factory,
                )
                self.sessions[beacon_id] = session
                perf.count("service.sessions_created")
            taken += session.ingest(batch)
        if refused:
            self.shed(refused)
        return taken

    def shed(self, refused: Dict[str, int]) -> None:
        """Book scans refused at the session cap: ``{beacon_id: samples}``.

        ``shed_samples`` counts the samples, ``sessions_shed`` the
        *distinct* refused beacons. One ``service.shed_samples`` signal
        covers the whole map (``n`` samples over ``beacons`` beacons); a
        beacon's first refusal also signals ``service.sessions_shed``,
        naming it.
        """
        n = sum(refused.values())
        self.shed_samples += n
        obs.signal("service.shed_samples", n, severity="warning",
                   beacons=len(refused),
                   max_sessions=self.config.max_sessions)
        for beacon_id in sorted(refused):
            if beacon_id not in self._shed_beacons:
                if len(self._shed_beacons) < SHED_ID_MEMORY:
                    self._shed_beacons.add(beacon_id)
                self.sessions_shed += 1
                obs.signal("service.sessions_shed",
                           severity="warning", beacon=str(beacon_id))

    def ingest_imu(self, samples: Iterable[ImuSample]) -> int:
        """Buffer observer IMU samples shared by every session."""
        return self._ring().ingest(samples)

    def _ring(self) -> ImuRing:
        if self.imu is None:
            raise ConfigurationError(
                "this service's IMU ring is owned by its fleet")
        return self.imu

    # -- stepping ------------------------------------------------------------

    @perf.profiled("service.TrackingService.tick_batch")
    def tick_batch(self, t: float) -> Dict[str, SessionSnapshot]:
        """Advance every session to stream time ``t``; per-beacon snapshots.

        The three phases of a tick on this service alone: every due
        session prepares its solve against the tick's view of the IMU ring
        (:meth:`begin_tick`), all prepared requests go through a single
        :func:`repro.core.estimator.fit_batch` call — one NumPy program for
        the whole tick instead of N Python solver loops — and the results
        are resolved back per session (:meth:`end_tick`). A single due
        session is simply a batch of one.
        """
        pending = self.begin_tick(t, self._ring().tick(t))
        return self.end_tick(t, pending, solve_pending([pending])[0])

    def begin_tick(self, t: float, imu: ImuTick) -> Pending:
        """Phase 1: every due session prepares its solve against ``imu``.

        Sessions go in sorted beacon-id order (determinism), each slicing
        its window and taking its observer track from the one shared view.
        """
        pending: Pending = []
        for beacon_id in sorted(self.sessions):
            session = self.sessions[beacon_id]
            p = session.begin_step(t, imu)
            if p is not None:
                pending.append((session, p))
        return pending

    def end_tick(
        self, t: float, pending: Pending, fits: Sequence[Any]
    ) -> Dict[str, SessionSnapshot]:
        """Phase 3: resolve each session's fit, then finish every session."""
        for (session, p), fit in zip(pending, fits):
            session.resolve_solve(p, fit)
        return {beacon_id: self.sessions[beacon_id].finish_step(t)
                for beacon_id in sorted(self.sessions)}

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
            "imu": None if self.imu is None else self.imu.buffer.stats(),
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
        compatibility policy). Only a service that owns its IMU ring writes
        the ``imu``/``imu_shed`` keys; a shard's ring lives in its fleet's
        checkpoint."""
        cp = {
            "format": SERVICE_CHECKPOINT_FORMAT,
            "config": {
                "imu_buffer": self.config.imu_buffer,
                "max_sessions": self.config.max_sessions,
                "session": self.config.session.to_dict(),
            },
            "sessions_shed": self.sessions_shed,
            "shed_samples": self.shed_samples,
            "shed_beacon_ids": sorted(self._shed_beacons),
            "restores": self.restores,
            "sessions": {
                beacon_id: session.checkpoint()
                for beacon_id, session in sorted(self.sessions.items())
            },
        }
        if self.imu is not None:
            cp.update(self.imu.checkpoint())
        return cp

    @classmethod
    def restore(
        cls,
        cp: Dict[str, Any],
        pipeline_factory: PipelineFactory = default_pipeline_factory,
    ) -> "TrackingService":
        """Rebuild a service from a :meth:`checkpoint` dict.

        A restored service continues bit-identically: feeding it the same
        future ingest/tick sequence yields the same snapshots an
        uninterrupted service would have produced. A checkpoint without
        ``imu`` rows restores a shard's ringless service. Older checkpoints
        also carry ``imu_window_s``, the ring's former separate age limit;
        it is ignored, since no solve window reaches past the session
        window.
        """
        if not isinstance(cp, dict) or cp.get("format") != SERVICE_CHECKPOINT_FORMAT:
            raise DataQualityError("unsupported service checkpoint")
        with restore_guard("service"):
            cfg = cp["config"]
            config = ServiceConfig(
                session=SessionConfig.from_dict(cfg["session"]),
                imu_buffer=int(cfg["imu_buffer"]),
                max_sessions=int(cfg["max_sessions"]),
            )
            service = cls(config, pipeline_factory=pipeline_factory,
                          own_imu=False)
            if "imu" in cp:
                service.imu = ImuRing.restore(cp, config.imu_buffer,
                                              config.session.window_s)
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
        obs.signal("service.service_restores",
                   sessions=len(service.sessions), restores=service.restores)
        return service


def solve_pending(batches: Sequence[Pending]) -> List[List[Any]]:
    """Phase 2 of a tick: one ``fit_batch`` call for every batch's solves.

    ``batches`` holds one :meth:`TrackingService.begin_tick` result per
    service (a fleet passes one per shard); the fits come back split the
    same way, each a :class:`~repro.core.estimator.FitResult` or the
    exception its solve raised. ``fit_batch`` is per-slice bit-identical,
    so how solves are grouped never changes a fix.
    """
    requests = [p.request for batch in batches for _, p in batch]
    if not requests:
        return [[] for _ in batches]
    fits = fit_batch(requests, return_exceptions=True)
    perf.count("service.batch_solves", len(requests))
    out, lo = [], 0
    for batch in batches:
        out.append(fits[lo:lo + len(batch)])
        lo += len(batch)
    return out
