"""One shard of the tracking fleet: a supervised ``TrackingService``.

A :class:`ShardWorker` owns exactly one
:class:`~repro.service.TrackingService` plus the shard-level bookkeeping
the fleet needs: tick counts, per-tick solve timing (into :mod:`repro.perf`
under ``fleet.shard_tick``), and checkpoint/restore that carries the shard
id. Workers are in-process multi-instance by design — every service is
already bounded, deterministic and checkpointable, so a worker can be
lifted into a separate process later without changing its contract; on
this repo's single-CPU reference host the in-process form is also the
faster one (no serialization of scan batches across a process boundary).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, Optional

from repro import obs, perf
from repro.errors import DataQualityError
from repro.service import ServiceConfig, TrackingService
from repro.service.checkpoint import restore_guard
from repro.service.session import PipelineFactory, SessionSnapshot, \
    default_pipeline_factory
from repro.types import ImuSample, RssiSample

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
        self.service = TrackingService(config, pipeline_factory)
        self.ticks = 0
        self.last_tick_wall_s = 0.0

    # -- ingest/tick (the service's contract, with shard accounting) ---------

    def ingest_scans(self, samples: Iterable[RssiSample]) -> int:
        return self.service.ingest_scans(samples)

    def ingest_imu(self, samples: Iterable[ImuSample]) -> int:
        return self.service.ingest_imu(samples)

    def tick(self, t: float) -> Dict[str, SessionSnapshot]:
        """Advance the shard to ``t`` with one batched solve dispatch."""
        start = time.perf_counter()
        snaps = self.service.tick_batch(t)
        self.last_tick_wall_s = time.perf_counter() - start
        self.ticks += 1
        perf.record("fleet.shard_tick", self.last_tick_wall_s)
        perf.count(f"fleet.shard.{self.shard_id}.ticks")
        return snaps

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
        obs.signal("fleet.shard_restored", shard=worker.shard_id,
                   sessions=worker.n_sessions)
        return worker
