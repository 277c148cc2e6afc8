"""One shard of the tracking fleet: a supervised ``TrackingService``.

A :class:`ShardWorker` owns exactly one ringless
:class:`~repro.service.TrackingService` plus the shard-level bookkeeping
the fleet needs: tick counts, the time of the shard's own tick phases
(into :mod:`repro.perf` under ``fleet.shard_tick``; the fleet's one shared
solve is not any shard's time), and checkpoint/restore that carries the
shard id. Workers are in-process multi-instance by design — every service is
already bounded, deterministic and checkpointable, so a worker can be
lifted into a separate process later without changing its contract; on
this repo's single-CPU reference host the in-process form is also the
faster one (no serialization of scan batches across a process boundary).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, Optional, Sequence

from repro import obs, perf
from repro.errors import DataQualityError
from repro.service import ServiceConfig, TrackingService
from repro.service.checkpoint import restore_guard
from repro.service.service import Pending, solve_pending
from repro.service.session import ImuTick, PipelineFactory, \
    SessionSnapshot, default_pipeline_factory
from repro.types import RssiSample

__all__ = ["ShardWorker"]

#: Checkpoint schema version written by :meth:`ShardWorker.checkpoint`.
WORKER_CHECKPOINT_FORMAT = 1


class ShardWorker:
    """Drives one shard's ``TrackingService`` on the fleet's stream clock."""

    def __init__(
        self,
        shard_id: int,
        config: Optional[ServiceConfig] = None,
        pipeline_factory: PipelineFactory = default_pipeline_factory,
    ):
        self.shard_id = int(shard_id)
        self.service = TrackingService(config, pipeline_factory,
                                       own_imu=False)
        self.ticks = 0
        self.last_tick_wall_s = 0.0
        self._begin_s = 0.0

    # -- ingest/tick (the service's contract, with shard accounting) ---------

    def ingest_scans(self, samples: Iterable[RssiSample]) -> int:
        return self.service.ingest_scans(samples)

    def begin_tick(self, t: float, imu: ImuTick) -> Pending:
        """Phase 1 of a fleet tick on this shard (timed)."""
        start = time.perf_counter()
        pending = self.service.begin_tick(t, imu)
        self._begin_s = time.perf_counter() - start
        return pending

    def end_tick(self, t: float, pending: Pending,
                 fits: Sequence[Any]) -> Dict[str, SessionSnapshot]:
        """Phase 3 of a fleet tick on this shard; books the shard's tick
        time as its own two phases."""
        start = time.perf_counter()
        snaps = self.service.end_tick(t, pending, fits)
        self.last_tick_wall_s = self._begin_s + time.perf_counter() - start
        self.ticks += 1
        perf.record("fleet.shard_tick", self.last_tick_wall_s)
        perf.count(f"fleet.shard.{self.shard_id}.ticks")
        return snaps

    def tick(self, t: float, imu: ImuTick) -> Dict[str, SessionSnapshot]:
        """All three phases on this shard alone, with its own solve batch
        (a restarted shard catching up on the ticks it missed)."""
        pending = self.begin_tick(t, imu)
        return self.end_tick(t, pending, solve_pending([pending])[0])

    # -- reporting -----------------------------------------------------------

    @property
    def n_sessions(self) -> int:
        return len(self.service.sessions)

    def stats(self) -> Dict[str, Any]:
        out = self.service.stats()
        out["shard_id"] = self.shard_id
        out["ticks"] = self.ticks
        out["last_tick_wall_s"] = self.last_tick_wall_s
        return out

    # -- persistence ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        return {
            "format": WORKER_CHECKPOINT_FORMAT,
            "shard_id": self.shard_id,
            "ticks": self.ticks,
            "service": self.service.checkpoint(),
        }

    @classmethod
    def restore(
        cls,
        cp: Dict[str, Any],
        config: Optional[ServiceConfig] = None,
        pipeline_factory: PipelineFactory = default_pipeline_factory,
    ) -> "ShardWorker":
        if not isinstance(cp, dict) or cp.get("format") != WORKER_CHECKPOINT_FORMAT:
            raise DataQualityError("unsupported shard-worker checkpoint")
        with restore_guard("shard-worker"):
            worker = cls(int(cp["shard_id"]), config, pipeline_factory)
            worker.ticks = int(cp["ticks"])
            worker.service = TrackingService.restore(
                cp["service"], pipeline_factory=pipeline_factory
            )
            if worker.service.imu is not None:
                raise DataQualityError(
                    "shard-worker checkpoint carries its own IMU ring; "
                    "a shard's ring lives in its fleet's checkpoint")
        obs.signal("fleet.shard_restored", shard=worker.shard_id,
                   sessions=worker.n_sessions)
        return worker
