"""Horizontally sharded tracking fleet: router, workers, live migration.

The layer above :mod:`repro.service` (see ``docs/streaming.md``): a
deterministic beacon-id → shard router, in-process multi-instance shard
workers each driving a batched :class:`~repro.service.TrackingService`,
layered admission control, and live session migration over the
bit-identical checkpoint wire format. The serving benchmark in
``perfbench/`` measures it end to end behind the gateway and supervisor.
"""

from repro.fleet.fleet import FleetConfig, TrackingFleet
from repro.fleet.router import ShardRouter
from repro.fleet.worker import ShardWorker

__all__ = [
    "FleetConfig",
    "TrackingFleet",
    "ShardRouter",
    "ShardWorker",
]
