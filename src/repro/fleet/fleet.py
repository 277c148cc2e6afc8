"""A horizontally sharded tracking fleet over many ``TrackingService``\\ s.

:class:`TrackingFleet` is the millions-of-users layer of the ROADMAP: the
single-process :class:`~repro.service.TrackingService` already bounds,
supervises and checkpoints a few hundred sessions; the fleet composes
``n_shards`` of them behind a deterministic
:class:`~repro.fleet.router.ShardRouter` so capacity scales by adding
shards, not by growing one session table. Design rules, inherited from the
service and extended fleet-wide:

* **Deterministic placement.** beacon-id → shard is a salted BLAKE2b hash
  plus an explicit pin table for migrated sessions — every restart and
  every observer agrees on placement with zero coordination.
* **One admission rule.** :meth:`TrackingFleet.admits` refuses *new*
  beacons beyond ``max_total_sessions``, then beyond their routed shard's
  ``max_sessions``; the gateway asks it before a frame's samples are
  built, and the drain asks it again. Refusals are booked once per shard
  per call (counted, evented); each session's circuit breaker and bounded
  buffers shed work below that. Nothing grows without bound.
* **Live migration via the checkpoint wire format.** A session moves
  between shards as ``json.dumps(session.checkpoint())`` — exactly the
  bytes a process restart would read — so a migrated session continues
  **snapshot-identically**: the fleet's output stream is the same whether
  or not the migration happened. Rebalance, drain and rolling upgrades
  are all this one primitive.
* **One observer.** One phone walks, so the fleet holds the one
  observer-IMU ring (:class:`~repro.service.session.ImuRing`) and opens
  one :class:`~repro.service.session.ImuTick` per tick for every shard:
  each solve window is sliced and dead-reckoned once per tick, whichever
  shard its session lives on. That is also why migration is transparent
  to the solve — every shard reads the same ring.

A tick is phased: every shard prepares its due solves against the shared
``ImuTick`` (shard order, sessions in sorted beacon order within each
shard), **one** :func:`~repro.core.estimator.fit_batch` call solves them
all, and each shard then resolves its fits and finishes its sessions —
fully deterministic, and bit-identical to stepping each shard alone,
because ``fit_batch`` is per-slice bit-identical. Workers are isolated
behind the :class:`~repro.fleet.worker.ShardWorker` contract, and
:class:`~repro.durability.FleetSupervisor` wraps the per-shard phases in
crash containment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import obs, perf
from repro.errors import ConfigurationError, DataQualityError
from repro.fleet.router import ShardRouter
from repro.fleet.worker import ShardWorker
from repro.service import ServiceConfig
from repro.service.checkpoint import restore_guard
from repro.service.service import SHED_ID_MEMORY, solve_pending
from repro.service.session import (
    ImuRing,
    PipelineFactory,
    SessionSnapshot,
    TrackingSession,
    default_pipeline_factory,
)
from repro.types import ImuSample, RssiSample

__all__ = ["FleetConfig", "TrackingFleet"]

#: One drain's routing: per-shard deliveries and per-shard bookings, each
#: ``{shard: {beacon_id: samples}}``.
Routes = Tuple[Dict[int, Dict[str, int]], Dict[int, Dict[str, int]]]

#: Checkpoint schema version written by :meth:`TrackingFleet.checkpoint`.
#: Format 1 kept one replica IMU ring per shard; format 2 keeps the fleet's
#: one ring at the top level.
FLEET_CHECKPOINT_FORMAT = 2


@dataclass(frozen=True)
class FleetConfig:
    """Topology and admission policy for the whole fleet.

    ``max_total_sessions`` is the fleet-wide admission cap: beacons beyond
    it are refused at the door (counted, never silently), independent of
    which shard their hash lands on. ``None`` delegates entirely to the
    per-shard ``service.max_sessions``.
    """

    n_shards: int = 4
    service: ServiceConfig = field(default_factory=ServiceConfig)
    max_total_sessions: Optional[int] = None
    router_salt: str = ""

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        if self.max_total_sessions is not None and self.max_total_sessions < 1:
            raise ConfigurationError("max_total_sessions must be >= 1")


class TrackingFleet:
    """Routes, supervises and migrates sessions across shard workers."""

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        pipeline_factory: PipelineFactory = default_pipeline_factory,
    ):
        self.config = config or FleetConfig()
        self._pipeline_factory = pipeline_factory
        self.router = ShardRouter(self.config.n_shards,
                                  salt=self.config.router_salt)
        self.workers: List[ShardWorker] = [
            ShardWorker(i, self.config.service, pipeline_factory)
            for i in range(self.config.n_shards)
        ]
        #: The observer-IMU ring every shard's sessions solve against.
        self.imu = ImuRing(self.config.service.imu_buffer,
                           self.config.service.session.window_s)
        #: Distinct beacons refused by fleet-wide admission control.
        self.admission_refused = 0
        #: Scan samples dropped with those refusals.
        self.refused_samples = 0
        self._refused_beacons: set = set()
        self.migrations = 0
        self.restores = 0

    # -- routing helpers -----------------------------------------------------

    def shard_of(self, beacon_id: str) -> Optional[int]:
        """The shard actually holding this beacon's session, if any."""
        for worker in self.workers:
            if beacon_id in worker.service.sessions:
                return worker.shard_id
        return None

    @property
    def total_sessions(self) -> int:
        return sum(w.n_sessions for w in self.workers)

    # -- ingestion -----------------------------------------------------------

    def admits(self, beacon_id: str) -> Optional[str]:
        """The fleet's one admission rule: ``None`` when scans for
        ``beacon_id`` would be taken, else the refusal reason.

        A beacon with a session on any shard is admitted; a new one is
        refused once ``max_total_sessions`` sessions exist
        (``"max_total_sessions"``), else its routed shard decides
        (``"max_sessions"``). Pure and cheap, so the gateway asks it
        before doing any per-sample work on a frame.
        """
        if self.shard_of(beacon_id) is not None:
            return None
        cap = self.config.max_total_sessions
        if cap is not None and self.total_sessions >= cap:
            return "max_total_sessions"
        return self.workers[self.router.shard_for(beacon_id)].service.admits(
            beacon_id)

    def ingest_scans(self, samples: Iterable[RssiSample],
                     routes: Optional[List[Routes]] = None) -> int:
        """Route scans to their beacon's shard, admitting new beacons.

        Each beacon is admitted by :meth:`admits`, in sorted order, so a
        shard that fills during this drain refuses the beacons after it.
        Refusals are booked as in :meth:`book_refusals`. When ``routes``
        is given, the drain appends its per-shard deliveries and shard
        bookings to it, both ``{shard: {beacon_id: samples}}``, which a
        supervisor journals.
        """
        taken = 0
        by_beacon: Dict[str, list] = {}
        for s in samples:
            by_beacon.setdefault(s.beacon_id, []).append(s)
        at_cap: Dict[str, int] = {}
        at_shard: Dict[str, int] = {}
        delivered: Dict[int, Dict[str, int]] = {}
        for beacon_id in sorted(by_beacon):
            batch = by_beacon[beacon_id]
            reason = self.admits(beacon_id)
            if reason is not None:
                refused = at_cap if reason == "max_total_sessions" else at_shard
                refused[beacon_id] = len(batch)
                continue
            shard = self.shard_of(beacon_id)
            if shard is None:
                shard = self.router.shard_for(beacon_id)
            delivered.setdefault(shard, {})[beacon_id] = len(batch)
            taken += self.workers[shard].ingest_scans(batch)
        booked = self._book(at_cap, at_shard)
        if routes is not None:
            routes.append((delivered, booked))
        return taken

    def book_refusals(self, refused: Dict[str, int]) -> Dict[int, Dict[str, int]]:
        """Book scans refused admission before the drain:
        ``{beacon_id: samples}``.

        No session was created since :meth:`admits` refused these
        beacons, and sessions never leave the fleet, so the fleet cap
        refused them all if it is full now; otherwise each beacon's routed
        shard refused it. Returns the shard bookings, ``{shard:
        {beacon_id: samples}}``, which a supervisor journals.
        """
        cap = self.config.max_total_sessions
        if cap is not None and self.total_sessions >= cap:
            return self._book(refused, {})
        return self._book({}, refused)

    def _book(self, at_cap: Dict[str, int],
              at_shard: Dict[str, int]) -> Dict[int, Dict[str, int]]:
        """The one refusal booking: the fleet books the beacons its cap
        refused (``refused_samples``, ``admission_refused``), each routed
        shard's service the rest (:meth:`TrackingService.shed`) — one
        samples signal per shard per call."""
        if at_cap:
            n = sum(at_cap.values())
            self.refused_samples += n
            obs.signal("fleet.refused_samples", n, severity="warning",
                       beacons=len(at_cap),
                       max_total_sessions=self.config.max_total_sessions)
            for beacon_id in sorted(at_cap):
                if beacon_id not in self._refused_beacons:
                    if len(self._refused_beacons) < SHED_ID_MEMORY:
                        self._refused_beacons.add(beacon_id)
                    self.admission_refused += 1
                    obs.signal("fleet.admission_refused",
                               severity="warning", beacon=str(beacon_id))
        by_shard: Dict[int, Dict[str, int]] = {}
        for beacon_id in sorted(at_shard):
            shard = self.router.shard_for(beacon_id)
            by_shard.setdefault(shard, {})[beacon_id] = at_shard[beacon_id]
        for shard in sorted(by_shard):
            self.workers[shard].service.shed(by_shard[shard])
        return by_shard

    def ingest_imu(self, samples: Iterable[ImuSample]) -> int:
        """Buffer observer IMU in the fleet's one ring."""
        return self.imu.ingest(samples)

    # -- stepping ------------------------------------------------------------

    def tick(self, t: float) -> Dict[str, SessionSnapshot]:
        """Advance every shard to stream time ``t``; merged snapshots.

        Every shard prepares its solves against the tick's one
        ``ImuTick``, one ``fit_batch`` solves them all, and each shard
        resolves and finishes in shard order — as deterministic as one
        service.
        """
        imu = self.imu.tick(t)  # a non-finite t raises ConfigurationError
        pending = [w.begin_tick(t, imu) for w in self.workers]
        fits = solve_pending(pending)
        merged: Dict[str, SessionSnapshot] = {}
        for worker, p, f in zip(self.workers, pending, fits):
            merged.update(worker.end_tick(t, p, f))
        perf.count("fleet.ticks")
        return merged

    # -- live migration ------------------------------------------------------

    def migrate(self, beacon_id: str, dst_shard: int) -> None:
        """Move one live session to ``dst_shard`` between ticks.

        The session travels as its JSON checkpoint — the identical bytes a
        process restart would read — and the router is pinned so future
        traffic follows it. Because every shard solves against the fleet's
        one IMU ring and sessions are solved independently, the migrated
        session's snapshot stream continues exactly as if it had never
        moved.
        """
        if not 0 <= dst_shard < self.config.n_shards:
            raise ConfigurationError(
                f"shard {dst_shard} out of range [0, {self.config.n_shards})"
            )
        src_shard = self.shard_of(beacon_id)
        if src_shard is None:
            raise ConfigurationError(
                f"no live session for beacon {beacon_id!r}"
            )
        if src_shard == dst_shard:
            return
        session = self.workers[src_shard].service.sessions.pop(beacon_id)
        wire = json.dumps(session.checkpoint())
        self.workers[dst_shard].service.sessions[beacon_id] = (
            TrackingSession.restore(
                json.loads(wire), pipeline_factory=self._pipeline_factory
            )
        )
        self.router.pin(beacon_id, dst_shard)
        self.migrations += 1
        obs.signal("fleet.migrations", beacon=str(beacon_id), src=src_shard,
                   dst=dst_shard, wire_bytes=len(wire))

    def drain(self, shard_id: int) -> List[Tuple[str, int]]:
        """Migrate every session off ``shard_id`` (rolling upgrade/retire).

        Sessions leave in sorted beacon order, each to the currently
        least-loaded other shard (ties to the lowest shard id) — a
        deterministic spread. Returns the ``(beacon_id, dst)`` moves made.
        """
        if not 0 <= shard_id < self.config.n_shards:
            raise ConfigurationError(
                f"shard {shard_id} out of range [0, {self.config.n_shards})"
            )
        if self.config.n_shards == 1:
            raise ConfigurationError("cannot drain the only shard")
        moves: List[Tuple[str, int]] = []
        for beacon_id in sorted(self.workers[shard_id].service.sessions):
            dst = min(
                (w.shard_id for w in self.workers if w.shard_id != shard_id),
                key=lambda i: (self.workers[i].n_sessions, i),
            )
            self.migrate(beacon_id, dst)
            moves.append((beacon_id, dst))
        obs.signal("fleet.drained", shard=shard_id, moved=len(moves))
        return moves

    def rebalance(self) -> List[Tuple[str, int]]:
        """Return every pinned session to its hash shard; drop stale pins."""
        moves: List[Tuple[str, int]] = []
        for beacon_id in sorted(self.router.pins):
            home = self.router.hash_shard(beacon_id)
            if self.shard_of(beacon_id) is not None:
                self.migrate(beacon_id, home)  # pin-to-home erases the pin
                moves.append((beacon_id, home))
            else:
                self.router.unpin(beacon_id)
        return moves

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Fleet-wide aggregates plus the per-shard service stats."""
        per_shard = [w.stats() for w in self.workers]
        counters: Dict[str, int] = {}
        for shard_stats in per_shard:
            for name, value in shard_stats["counters"].items():
                counters[name] = counters.get(name, 0) + value
        return {
            "n_shards": self.config.n_shards,
            "sessions": self.total_sessions,
            "sessions_per_shard": [w.n_sessions for w in self.workers],
            "sessions_shed": sum(s["sessions_shed"] for s in per_shard),
            "shed_samples": sum(s["shed_samples"] for s in per_shard),
            "admission_refused": self.admission_refused,
            "refused_samples": self.refused_samples,
            "migrations": self.migrations,
            "pins": len(self.router.pins),
            "restores": self.restores,
            "imu": self.imu.buffer.stats(),
            "counters": counters,
            "per_shard": per_shard,
        }

    # -- persistence ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """The whole fleet as one JSON-safe dict (router, shards, admission,
        and the IMU rows once, under ``imu``/``imu_shed``)."""
        return {
            "format": FLEET_CHECKPOINT_FORMAT,
            "config": {
                "n_shards": self.config.n_shards,
                "max_total_sessions": self.config.max_total_sessions,
                "router_salt": self.config.router_salt,
            },
            "router": self.router.checkpoint(),
            "workers": [w.checkpoint() for w in self.workers],
            "admission_refused": self.admission_refused,
            "refused_samples": self.refused_samples,
            "refused_beacon_ids": sorted(self._refused_beacons),
            "migrations": self.migrations,
            "restores": self.restores,
            **self.imu.checkpoint(),
        }

    @classmethod
    def restore(
        cls,
        cp: Dict[str, Any],
        pipeline_factory: PipelineFactory = default_pipeline_factory,
    ) -> "TrackingFleet":
        """Rebuild a fleet from :meth:`checkpoint`, validating consistency.

        Beyond per-layer parsing, the fleet checks the cross-field
        invariants that would otherwise mis-route traffic after a resume:
        shard count agreement between config, router and worker list;
        worker ids matching their positions; and every live session sitting
        on the shard the router would route it to.

        A format-1 checkpoint carries one replica IMU ring per shard; it
        restores from shard 0's ring and is refused when the replicas
        differ.
        """
        if not isinstance(cp, dict) or cp.get("format") not in (
                1, FLEET_CHECKPOINT_FORMAT):
            raise DataQualityError("unsupported fleet checkpoint")
        with restore_guard("fleet"):
            cfg = cp["config"]
            router = ShardRouter.restore(cp["router"])
            worker_cps = cp["workers"]
            ring_cp = cp
            if cp["format"] == 1:
                ring_cp, worker_cps = _one_ring(worker_cps)
            n_shards = int(cfg["n_shards"])
            if not (router.n_shards == len(worker_cps) == n_shards):
                raise DataQualityError(
                    f"fleet checkpoint: shard count mismatch (config "
                    f"{n_shards}, router {router.n_shards}, "
                    f"{len(worker_cps)} workers)"
                )
            workers = [
                ShardWorker.restore(wcp, pipeline_factory=pipeline_factory)
                for wcp in worker_cps
            ]
            for i, worker in enumerate(workers):
                if worker.shard_id != i:
                    raise DataQualityError(
                        f"fleet checkpoint: worker {i} claims shard id "
                        f"{worker.shard_id}"
                    )
            max_total = cfg["max_total_sessions"]
            # Older checkpoints also carry a key choosing the since-removed
            # sequential tick; both tick paths were bit-identical, so the
            # key is ignored.
            fleet = cls(
                FleetConfig(
                    n_shards=n_shards,
                    service=workers[0].service.config,
                    max_total_sessions=(None if max_total is None
                                        else int(max_total)),
                    router_salt=str(cfg["router_salt"]),
                ),
                pipeline_factory=pipeline_factory,
            )
            fleet.router = router
            fleet.workers = workers
            fleet.imu = ImuRing.restore(
                ring_cp, fleet.config.service.imu_buffer,
                fleet.config.service.session.window_s)
            for worker in workers:
                for beacon_id in worker.service.sessions:
                    routed = router.shard_for(beacon_id)
                    if routed != worker.shard_id:
                        raise DataQualityError(
                            f"fleet checkpoint: session {beacon_id!r} lives "
                            f"on shard {worker.shard_id} but routes to "
                            f"{routed}"
                        )
            fleet.admission_refused = int(cp["admission_refused"])
            fleet.refused_samples = int(cp["refused_samples"])
            fleet._refused_beacons = {
                str(b) for b in cp.get("refused_beacon_ids", ())
            }
            fleet.migrations = int(cp["migrations"])
            fleet.restores = int(cp["restores"]) + 1
        obs.signal("fleet.restores", shards=n_shards,
                   sessions=fleet.total_sessions, restores=fleet.restores)
        return fleet


def _one_ring(
    worker_cps: List[Dict[str, Any]]
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Split a format-1 fleet's replica IMU rings out of its workers.

    Returns shard 0's ring and the worker checkpoints without theirs.
    Every replica was fed the same broadcast stream, so replicas that
    differ mean a corrupted checkpoint: refused, typed.
    """
    keys = ("imu", "imu_shed")
    rings = [json.dumps([w["service"][k] for k in keys]) for w in worker_cps]
    if any(ring != rings[0] for ring in rings[1:]):
        raise DataQualityError(
            "fleet checkpoint: the shards' IMU replica rings differ")
    stripped = [
        dict(w, service={k: v for k, v in w["service"].items()
                         if k not in keys})
        for w in worker_cps
    ]
    return {k: worker_cps[0]["service"][k] for k in keys}, stripped
