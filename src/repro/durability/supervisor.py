"""Per-shard crash containment and point-in-time recovery for the fleet.

:class:`FleetSupervisor` wraps a :class:`~repro.fleet.TrackingFleet` and
speaks the same contract the gateway expects of its ``fleet`` attribute
(``config`` / ``admits`` / ``book_refusals`` / ``ingest_scans`` /
``ingest_imu`` / ``tick`` / ``stats`` / ``total_sessions``), so it drops
in transparently:
``IngestionGateway(cfg, FleetSupervisor(fleet, store))``. What it adds is
the blast-radius rule a serving system needs: **a shard worker exception
mid-tick fails that shard, not the fleet.** The supervisor runs the
fleet's phased tick (every shard prepares, one shared ``fit_batch``,
every shard resolves and finishes) with each shard's own phases inside
its containment boundary. An exception escaping the shared solve fails
exactly the shards with requests in that batch; shards with none keep
serving. The failed shard is rebuilt
from the last good :class:`~repro.durability.store.CheckpointStore`
snapshot, the ticks it missed are re-driven from the supervisor's
in-memory ingest journal against the fleet IMU ring rebuilt from the same
snapshot, and the healthy shards never stop serving.
Restart scheduling reuses the service layer's proven reflexes — a
per-shard :class:`~repro.service.breaker.ExponentialBackoff` on the
stream clock, and a :class:`~repro.service.breaker.CircuitBreaker` that
stops burning restore work on a shard that re-fails every probe.

The journal is the containment-scope twin of the gateway trace: it holds
only the ticks since the last durable checkpoint (trimmed on every save),
so shard recovery needs no file I/O — snapshot payload plus journal
suffix reproduces the shard's state snapshot-identically, the same
equivalence contract migration is judged by.

:func:`recover` is the whole-process form of the same ladder: after a
crash (simulated by the chaos harness, real in production) it loads the
newest verifiable fleet snapshot from the store, reads the crashed run's
trace with :func:`~repro.gateway.trace.recover_trace` (unsealed, possibly
torn-tail), re-drives the trace suffix past the checkpoint, and verifies
every re-driven tick's snapshot digest against the digest the original
process recorded before dying.

The journal records each drain as the fleet routed it: the scans, which
beacons' scans each shard took, and which refusals each shard booked. A
restarted shard re-takes and re-books exactly its own share, so a beacon
the fleet refused (at its ``max_total_sessions`` cap, or at another
shard) never reaches it.

Known limitation: a live migration between checkpoints moves a session
across shards without an entry in the ingest journal, so a shard crash in
that window restarts the mover from the wrong state. Run ``rebalance()``
(or checkpoint) right after migrating; the whole-process :func:`recover`
path does not share this limit because the trace re-drive recreates the
pre-migration placement exactly.

Every action is a ``supervisor.<name>`` :func:`repro.obs.signal` that
also writes the local ``counters`` ledger; the chaos harness audits
signal parity across kill/recover cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import obs, perf
from repro.digests import Mismatch
from repro.errors import ConfigurationError, DataQualityError, ReproError
from repro.fleet import TrackingFleet
from repro.fleet.fleet import Routes
from repro.fleet.worker import ShardWorker
from repro.gateway.gateway import IngestionGateway
from repro.gateway.trace import (
    TraceRecovery,
    _gateway_from_meta,
    _redrive,
    recover_trace,
)
from repro.service.breaker import (
    BackoffConfig,
    BreakerConfig,
    CircuitBreaker,
    ExponentialBackoff,
)
from repro.service.service import Pending, solve_pending
from repro.service.session import ImuRing, PipelineFactory, \
    SessionSnapshot, default_pipeline_factory
from repro.durability.store import CheckpointStore
from repro.types import ImuSample, RssiSample

__all__ = ["FleetSupervisor", "RecoveryReport", "recover"]

#: The snapshot kind the supervisor saves fleet checkpoints under.
FLEET_SNAPSHOT_KIND = "fleet"

#: One journaled drain: its scans and the fleet's routing of them.
_Drain = Tuple[List[RssiSample], Routes]


class FleetSupervisor:
    """Gateway-compatible fleet wrapper that survives shard crashes."""

    def __init__(
        self,
        fleet: Optional[TrackingFleet] = None,
        store: Optional[CheckpointStore] = None,
        checkpoint_every: int = 16,
        backoff: Optional[BackoffConfig] = None,
        breaker: Optional[BreakerConfig] = None,
        pipeline_factory: PipelineFactory = default_pipeline_factory,
    ):
        if checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        self.fleet = fleet or TrackingFleet()
        self.store = store
        self.checkpoint_every = int(checkpoint_every)
        self._pipeline_factory = pipeline_factory
        n = self.fleet.config.n_shards
        self.failed: Dict[int, str] = {}  # shard id -> failure reason
        self.restarts = 0
        self.ticks = 0
        self.counters: Dict[str, int] = {}
        self._backoffs = [
            ExponentialBackoff(backoff or BackoffConfig(
                base_s=1.0, factor=2.0, max_s=60.0), key=f"shard:{i}")
            for i in range(n)
        ]
        self._breakers = [
            CircuitBreaker(breaker or BreakerConfig(
                failure_threshold=5, cooldown_s=30.0), key=f"shard:{i}")
            for i in range(n)
        ]
        #: Ticks since the last checkpoint: ``(t, drains, imu)`` — the
        #: re-drive source for a shard restart. Each ``book_refusals`` or
        #: ``ingest_scans`` call is one drain: its scans and the fleet's
        #: ``(delivered, booked)`` routing of them.
        self._journal: List[Tuple[float, List[_Drain], List[ImuSample]]] = []
        self._pending_drains: List[_Drain] = []
        self._pending_imu: List[ImuSample] = []
        #: The last checkpoint payload saved (or restored), in memory —
        #: shard restart must not depend on disk being healthy.
        self._last_cp: Optional[Dict[str, Any]] = None
        #: Scripted faults: shard id -> exception to raise on next step.
        self._injected: Dict[int, BaseException] = {}

    # -- the gateway's fleet contract ----------------------------------------

    @property
    def config(self):
        return self.fleet.config

    @property
    def workers(self) -> List[ShardWorker]:
        return self.fleet.workers

    @property
    def total_sessions(self) -> int:
        return self.fleet.total_sessions

    def admits(self, beacon_id: str) -> Optional[str]:
        return self.fleet.admits(beacon_id)

    def book_refusals(self, refused: Dict[str, int]) -> Dict[int, Dict[str, int]]:
        booked = self.fleet.book_refusals(refused)
        self._pending_drains.append(([], ({}, booked)))
        return booked

    def ingest_scans(self, samples) -> int:
        samples = list(samples)
        routes: List[Routes] = []
        taken = self.fleet.ingest_scans(samples, routes=routes)
        self._pending_drains.append((samples, routes[0]))
        return taken

    def ingest_imu(self, samples) -> int:
        samples = list(samples)
        self._pending_imu.extend(samples)
        return self.fleet.ingest_imu(samples)

    def tick(self, t: float) -> Dict[str, SessionSnapshot]:
        """Step every healthy shard; contain, restart, re-drive the rest.

        The fleet's phased tick (shard order, one shared ``fit_batch``,
        deterministic merge) with each shard's phases run inside its own
        containment boundary. A failing shard is marked failed and the
        remaining shards still produce this tick's snapshots; an exception
        escaping the shared solve fails every shard with a request in it.
        A failed shard rejoins via :meth:`_restart_shard` once its backoff
        and breaker admit the attempt, and then steps this tick with the
        rest.
        """
        t = float(t)
        imu = self.fleet.imu.tick(t)  # a non-finite t raises, unjournaled
        self._journal.append((t, self._pending_drains, self._pending_imu))
        self._pending_drains, self._pending_imu = [], []
        begun: Dict[int, Tuple[ShardWorker, Pending]] = {}
        for worker in list(self.fleet.workers):
            shard, fault = worker.shard_id, None
            if shard in self.failed:
                if not (self._backoffs[shard].ready(t)
                        and self._breakers[shard].allow(t)):
                    continue
                worker = self._restart_shard(shard, t)
                if worker is None:
                    continue
            else:
                fault = self._injected.pop(shard, None)
            try:
                if fault is not None:
                    raise fault
                begun[shard] = (worker, worker.begin_tick(t, imu))
            except Exception as exc:  # noqa: BLE001 — containment boundary
                self._fail_shard(shard, t, exc)
        try:
            fits = solve_pending([p for _, p in begun.values()])
        except Exception as exc:  # noqa: BLE001 — containment boundary
            for shard, (_, pending) in list(begun.items()):
                if pending:
                    self._fail_shard(shard, t, exc)
                    del begun[shard]
            fits = [[] for _ in begun]
        merged: Dict[str, SessionSnapshot] = {}
        for (shard, (worker, pending)), shard_fits in zip(begun.items(),
                                                           fits):
            try:
                merged.update(worker.end_tick(t, pending, shard_fits))
            except Exception as exc:  # noqa: BLE001 — containment boundary
                self._fail_shard(shard, t, exc)
        self.ticks += 1
        perf.count("fleet.ticks")
        if self.ticks % self.checkpoint_every == 0:
            self.checkpoint_now(t)
        return merged

    def stats(self) -> Dict[str, Any]:
        out = self.fleet.stats()
        out["supervisor"] = {
            "failed_shards": sorted(self.failed),
            "restarts": self.restarts,
            "ticks": self.ticks,
            "journal_ticks": len(self._journal),
            "counters": dict(self.counters),
        }
        return out

    # -- faults and containment ----------------------------------------------

    def inject_crash(self, shard_id: int,
                     exc: Optional[BaseException] = None) -> None:
        """Script the next step of ``shard_id`` to raise (chaos hook)."""
        if not 0 <= shard_id < self.fleet.config.n_shards:
            raise ConfigurationError(
                f"shard {shard_id} out of range "
                f"[0, {self.fleet.config.n_shards})")
        self._injected[shard_id] = exc or RuntimeError(
            f"injected crash on shard {shard_id}")

    def _fail_shard(self, shard: int, t: float, exc: BaseException) -> None:
        typed = isinstance(exc, ReproError)
        reason = f"{type(exc).__name__}: {exc}"
        self.failed[shard] = reason
        self._backoffs[shard].on_failure(t)
        self._breakers[shard].record_failure(t)
        obs.signal("supervisor.shard_failed", ledger=self.counters,
                   severity="error", shard=shard, t=t, typed=typed,
                   error=type(exc).__name__)

    # -- restart: snapshot + journal re-drive --------------------------------

    def _restart_shard(self, shard: int, t: float) -> Optional[ShardWorker]:
        """Rebuild one shard from the last snapshot and its missed ticks.

        Returns the restarted worker (installed, caught up to just before
        ``t``, with this tick's scans already delivered) ready for the
        caller to step — or ``None`` when the restart itself failed, in
        which case backoff/breaker schedule the next attempt.
        """
        try:
            if self._last_cp is not None:
                worker = ShardWorker.restore(
                    self._last_cp["fleet"]["workers"][shard],
                    pipeline_factory=self._pipeline_factory)
            else:
                # No checkpoint yet: the shard restarts empty and the
                # journal (which reaches back to tick 0) rebuilds it.
                worker = ShardWorker(shard, self.fleet.config.service,
                                     self._pipeline_factory)
            self.fleet.workers[shard] = worker
            redriven = self._redrive(worker, t)
        except ReproError as exc:
            self._backoffs[shard].on_failure(t)
            self._breakers[shard].record_failure(t)
            obs.signal("supervisor.restart_failed", ledger=self.counters,
                       severity="error", shard=shard, t=t,
                       error=type(exc).__name__, detail=str(exc))
            return None
        del self.failed[shard]
        self._backoffs[shard].reset()
        self._breakers[shard].record_success(t)
        self.restarts += 1
        obs.signal("supervisor.shard_restarted", ledger=self.counters,
                   shard=shard, t=t, redriven_ticks=redriven,
                   sessions=worker.n_sessions)
        return worker

    def _redrive(self, worker: ShardWorker, t: float) -> int:
        """Replay the journal into a freshly restored worker.

        Each drain's scans this shard took are re-ingested and its
        bookings on this shard booked again, in the drain's order. Entries
        strictly before ``t`` are also ticked (the worker missed those
        steps entirely), each against an ``ImuTick`` of the fleet ring as
        it stood at that tick: the snapshot's ring plus the journal's IMU
        rows. The current tick's drains are replayed only — the caller
        steps it together with the healthy shards, against the fleet's own
        ring, keeping one shared tick cadence.
        """
        cfg = self.fleet.config.service
        if self._last_cp is not None:
            ring = ImuRing.restore(self._last_cp["fleet"], cfg.imu_buffer,
                                   cfg.session.window_s)
        else:
            ring = ImuRing(cfg.imu_buffer, cfg.session.window_s)
        shard = worker.shard_id
        redriven = 0
        for jt, drains, imu in self._journal:
            for scans, (delivered, booked) in drains:
                if shard in delivered:
                    worker.ingest_scans([s for s in scans
                                         if s.beacon_id in delivered[shard]])
                if shard in booked:
                    worker.service.shed(booked[shard])
            if jt < t:
                ring.ingest(imu)
                worker.tick(jt, ring.tick(jt))
                redriven += 1
        return redriven

    # -- checkpointing --------------------------------------------------------

    def checkpoint_now(self, t: Optional[float] = None) -> bool:
        """Snapshot the fleet to the store and trim the journal.

        Skipped (False) while any shard is failed — a checkpoint must
        capture a consistent fleet, and a failed worker's in-memory state
        is exactly what we refuse to trust. The journal keeps growing in
        that window so the eventual restart can still re-drive it.
        """
        if self.failed:
            obs.signal("supervisor.checkpoint_deferred", ledger=self.counters,
                       severity="warning", failed_shards=sorted(self.failed),
                       t=t)
            return False
        payload = {"tick": self.ticks, "fleet": self.fleet.checkpoint()}
        self._last_cp = payload
        self._journal = []
        if self.store is not None:
            info = self.store.save(FLEET_SNAPSHOT_KIND, payload,
                                   tick=self.ticks)
            obs.signal("supervisor.checkpointed", ledger=self.counters,
                       tick=self.ticks, seq=info.seq, bytes=info.n_bytes)
        else:
            obs.signal("supervisor.checkpointed", ledger=self.counters,
                       tick=self.ticks, seq=None, bytes=None)
        return True


@dataclass(frozen=True)
class RecoveryReport:
    """What whole-process :func:`recover` did, for the chaos gate.

    ``redriven_ticks`` counts trace ticks re-applied past the checkpoint;
    ``digest_mismatches`` lists ``(tick_index, t, recorded, replayed)``
    for any re-driven tick whose snapshot digest diverged from what the
    crashed process recorded — non-empty means the recovered state is
    *not* point-in-time-identical and must not be trusted.
    """

    checkpoint_seq: int
    checkpoint_tick: int
    trace_ticks: int
    redriven_ticks: int
    trace_recovery: TraceRecovery
    quarantined: Tuple[Tuple[str, str], ...] = ()
    digest_mismatches: Tuple[Mismatch, ...] = ()

    @property
    def identical(self) -> bool:
        """Did every re-driven tick reproduce its recorded digest?"""
        return not self.digest_mismatches


def recover(
    store_root: str,
    trace_path: str,
    pipeline_factory: PipelineFactory = default_pipeline_factory,
    store: Optional[CheckpointStore] = None,
    checkpoint_every: int = 16,
    trace_start_tick: int = 0,
) -> Tuple[IngestionGateway, RecoveryReport]:
    """Point-in-time recovery after a process crash: snapshot + trace suffix.

    The ladder, each rung typed and evented:

    1. ``restore_latest("fleet")`` from the :class:`CheckpointStore` —
       corrupt snapshots are quarantined on the way to the newest one
       that verifies.
    2. :func:`~repro.gateway.trace.recover_trace` on the crashed run's
       trace — unsealed is expected, at most one torn final line is
       dropped, everything kept is hash-verified.
    3. Rebuild the gateway topology from the trace header, install the
       restored fleet (wrapped in a fresh :class:`FleetSupervisor` when
       the store is provided — recovery re-arms the protection that made
       it possible), and re-drive every trace tick past the checkpoint.
    4. Verify each re-driven tick's snapshot digest against the one the
       original process recorded *before* it died — the recovered state
       is accepted only as far as it is provably identical.

    ``trace_start_tick`` supports runs that already survived one crash: a
    resumed process starts a *fresh* trace segment whose first record is
    run tick ``trace_start_tick``, not 0. Recovery refuses (typed) when
    the snapshot predates the segment — the ticks between them exist in
    no readable trace, so catch-up cannot be verified.

    Returns the caught-up gateway and the :class:`RecoveryReport`;
    raises :class:`~repro.errors.DataQualityError` when no verifiable
    snapshot exists or the trace is corrupt beyond its torn tail.
    """
    store = store or CheckpointStore(store_root)
    restored = store.restore_latest(FLEET_SNAPSHOT_KIND)
    payload = restored.payload
    if (not isinstance(payload, dict) or "fleet" not in payload
            or not isinstance(payload.get("tick"), int)):
        shape = (sorted(payload) if isinstance(payload, dict)
                 else type(payload).__name__)
        raise DataQualityError(
            f"fleet snapshot seq {restored.info.seq} does not hold a "
            f"supervisor checkpoint (got {shape!r})")
    meta, tick_records, trace_recovery = recover_trace(trace_path)
    gateway = _gateway_from_meta(meta, pipeline_factory)
    fleet = TrackingFleet.restore(payload["fleet"],
                                  pipeline_factory=pipeline_factory)
    supervisor = FleetSupervisor(fleet, store=store,
                                 checkpoint_every=checkpoint_every,
                                 pipeline_factory=pipeline_factory)
    supervisor.ticks = int(payload["tick"])
    gateway.fleet = supervisor
    checkpoint_tick = int(payload["tick"])
    if checkpoint_tick < int(trace_start_tick):
        raise DataQualityError(
            f"fleet snapshot is at tick {checkpoint_tick} but the trace "
            f"segment begins at tick {trace_start_tick}: the gap exists in "
            f"no readable trace, so point-in-time catch-up is impossible")
    replayed = _redrive(gateway, tick_records, trace_path,
                        first=checkpoint_tick - int(trace_start_tick))
    report = RecoveryReport(
        checkpoint_seq=restored.info.seq,
        checkpoint_tick=checkpoint_tick,
        trace_ticks=len(tick_records),
        redriven_ticks=replayed.ticks,
        trace_recovery=trace_recovery,
        quarantined=restored.skipped,
        digest_mismatches=tuple(replayed.mismatches),
    )
    obs.signal(
        "supervisor.recovered",
        severity="info" if report.identical else "error",
        checkpoint_seq=report.checkpoint_seq,
        checkpoint_tick=checkpoint_tick,
        redriven=report.redriven_ticks,
        torn_line=trace_recovery.torn_line,
        mismatches=len(report.digest_mismatches),
    )
    return gateway, report
