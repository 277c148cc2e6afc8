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
* **Admission control in layers.** The fleet refuses *new* beacons beyond
  ``max_total_sessions`` (counted, evented); each shard's service refuses
  beyond its own ``max_sessions``; each session's circuit breaker and
  bounded buffers shed work below that. Nothing grows without bound.
* **Live migration via the checkpoint wire format.** A session moves
  between shards as ``json.dumps(session.checkpoint())`` — exactly the
  bytes a process restart would read — so a migrated session continues
  **snapshot-identically**: the fleet's output stream is the same whether
  or not the migration happened. Rebalance, drain and rolling upgrades
  are all this one primitive.
* **Shared observer IMU.** The observer's IMU stream is broadcast to every
  shard, so each shard holds a replica ring; that replica equality is what
  makes migration transparent to the solve.

The fleet steps shards sequentially in-process (shard order, sessions in
sorted beacon order within each shard — fully deterministic). Workers are
isolated behind the :class:`~repro.fleet.worker.ShardWorker` contract so a
process-pool execution model can be slotted in without touching routing,
admission or migration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import obs, perf
from repro.errors import ConfigurationError, DataQualityError
from repro.fleet.router import ShardRouter
from repro.fleet.worker import ShardWorker
from repro.service import ServiceConfig
from repro.service.checkpoint import restore_guard
from repro.service.service import SHED_ID_MEMORY
from repro.service.session import (
    PipelineFactory,
    SessionSnapshot,
    TrackingSession,
    default_pipeline_factory,
)
from repro.types import ImuSample, RssiSample

__all__ = ["FleetConfig", "TrackingFleet"]

#: Checkpoint schema version written by :meth:`TrackingFleet.checkpoint`.
FLEET_CHECKPOINT_FORMAT = 1


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

    def ingest_scans(self, samples: Iterable[RssiSample]) -> int:
        """Route scans to their beacon's shard, admitting new beacons.

        Admission is layered: an unknown beacon is refused fleet-wide once
        ``max_total_sessions`` is reached (``fleet.admission_refused``),
        and a shard's own ``max_sessions`` still applies below that. Both
        refusals are counted and evented, never silent.
        """
        taken = 0
        by_beacon: Dict[str, list] = {}
        for s in samples:
            by_beacon.setdefault(s.beacon_id, []).append(s)
        cap = self.config.max_total_sessions
        for beacon_id in sorted(by_beacon):
            batch = by_beacon[beacon_id]
            shard = self.shard_of(beacon_id)
            if shard is None:
                if cap is not None and self.total_sessions >= cap:
                    self.refused_samples += len(batch)
                    perf.count("fleet.refused_samples", len(batch))
                    if beacon_id not in self._refused_beacons:
                        if len(self._refused_beacons) < SHED_ID_MEMORY:
                            self._refused_beacons.add(beacon_id)
                        self.admission_refused += 1
                        perf.count("fleet.admission_refused")
                    obs.emit(
                        "fleet.admission_refused",
                        severity="warning",
                        component="fleet",
                        beacon=str(beacon_id),
                        samples=len(batch),
                        max_total_sessions=cap,
                    )
                    continue
                shard = self.router.shard_for(beacon_id)
            taken += self.workers[shard].ingest_scans(batch)
        return taken

    def ingest_imu(self, samples: Iterable[ImuSample]) -> int:
        """Broadcast observer IMU to every shard (replica rings)."""
        samples = list(samples)
        taken = 0
        for worker in self.workers:
            taken = worker.ingest_imu(samples)
        return taken

    # -- stepping ------------------------------------------------------------

    def tick(self, t: float) -> Dict[str, SessionSnapshot]:
        """Advance every shard to stream time ``t``; merged snapshots.

        Shards step in shard order, sessions in sorted beacon order within
        each shard, so the fleet is as deterministic as one service.
        """
        if not math.isfinite(t):
            raise ConfigurationError("tick time must be finite")
        merged: Dict[str, SessionSnapshot] = {}
        for worker in self.workers:
            merged.update(worker.tick(t))
        perf.count("fleet.ticks")
        return merged

    # -- live migration ------------------------------------------------------

    def migrate(self, beacon_id: str, dst_shard: int) -> None:
        """Move one live session to ``dst_shard`` between ticks.

        The session travels as its JSON checkpoint — the identical bytes a
        process restart would read — and the router is pinned so future
        traffic follows it. Because every shard holds the same IMU replica
        and sessions are solved independently, the migrated session's
        snapshot stream continues exactly as if it had never moved.
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
        perf.count("fleet.migrations")
        obs.emit(
            "fleet.migrated",
            severity="info",
            component="fleet",
            beacon=str(beacon_id),
            src=src_shard,
            dst=dst_shard,
            wire_bytes=len(wire),
        )

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
        obs.emit(
            "fleet.drained",
            severity="info",
            component="fleet",
            shard=shard_id,
            moved=len(moves),
        )
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
            "counters": counters,
            "per_shard": per_shard,
        }

    # -- persistence ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """The whole fleet as one JSON-safe dict (router, shards, admission)."""
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
        """
        if not isinstance(cp, dict) or cp.get("format") != FLEET_CHECKPOINT_FORMAT:
            raise DataQualityError("unsupported fleet checkpoint")
        with restore_guard("fleet"):
            cfg = cp["config"]
            router = ShardRouter.restore(cp["router"])
            worker_cps = cp["workers"]
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
        perf.count("fleet.restores")
        obs.emit(
            "fleet.restored",
            severity="info",
            component="fleet",
            shards=n_shards,
            sessions=fleet.total_sessions,
            restores=fleet.restores,
        )
        return fleet
