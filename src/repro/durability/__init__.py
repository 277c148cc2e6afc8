"""Crash-safe durability: the layer that makes checkpoints survive hardware.

Every layer below proves its state round-trips bit-identically through a
JSON checkpoint; this package gives those checkpoints a disk to live on
and a process to come back to:

* :mod:`~repro.durability.store` — :class:`CheckpointStore`: atomic
  (tmp + fsync + rename) snapshot files with embedded BLAKE2b digests, a
  digested manifest, retention rotation, and quarantine-don't-delete for
  anything that fails verification.
* :mod:`~repro.durability.supervisor` — :class:`FleetSupervisor`:
  per-shard crash containment over a
  :class:`~repro.fleet.TrackingFleet` (a worker exception fails the
  shard, not the fleet), backoff/breaker-scheduled restart from the last
  good snapshot with journal re-drive, and :func:`recover` — whole-process
  point-in-time recovery from snapshot + verified trace suffix.
* :mod:`~repro.durability.chaos` — the seeded kill/corrupt/recover
  harness behind ``python -m repro chaos``, gating on zero untyped
  errors, bounded loss and digest-identical recovered state.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.durability.chaos": ["ChaosConfig", "ChaosResult", "run_chaos"],
    "repro.durability.store": [
        "CheckpointStore", "RestoredSnapshot", "SnapshotInfo"],
    "repro.durability.supervisor": [
        "FleetSupervisor", "RecoveryReport", "recover"],
})
