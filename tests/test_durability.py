"""The durability layer: checkpoint store, fleet supervisor, recovery.

Three escalating scopes, mirroring the recovery ladder itself:

* :class:`~repro.durability.CheckpointStore` — atomic saves, retention,
  quarantine-don't-delete, manifest cross-checks, typed refusals.
* :class:`~repro.durability.FleetSupervisor` — a shard crash is contained
  to its shard, the restart rebuilds snapshot-identical state from the
  last checkpoint plus the journal, and checkpointing refuses to capture
  a fleet with a failed shard in it.
* :func:`~repro.durability.recover` — whole-process point-in-time
  recovery from snapshot + verified trace suffix, digest-checked per
  re-driven tick.

The final class is the seeded chaos smoke (``-m chaos``), the same gate
the CI job runs via the CLI.
"""

import json

import pytest

from repro import perf
from repro.durability import store as store_module
from repro.durability import (
    ChaosConfig,
    CheckpointStore,
    FleetSupervisor,
    recover,
    run_chaos,
)
from repro.errors import ConfigurationError, DataQualityError
from repro.fleet import FleetConfig, TrackingFleet
from repro.gateway import IngestionGateway, TraceWriter, trace_meta
from repro.gateway.gateway import GatewayConfig
from repro.gateway.trace import snapshot_digest
from repro.service import BackoffConfig
from repro.types import RssiSample
from tests.stubs import ScriptedPipeline


def _scan(t, beacon):
    return RssiSample(t, -58.0 - 0.1 * t, beacon, 37)


BEACONS = [f"be:{i:02d}" for i in range(6)]


def _drive(target, t):
    """One tick of a fixed workload against a fleet-like object."""
    target.ingest_scans([_scan(t - 0.4, b) for b in BEACONS])
    return target.tick(t)


def _supervised(store=None, checkpoint_every=4):
    fleet = TrackingFleet(FleetConfig(n_shards=2),
                          pipeline_factory=ScriptedPipeline)
    return FleetSupervisor(
        fleet, store=store, checkpoint_every=checkpoint_every,
        backoff=BackoffConfig(base_s=0.5, factor=2.0, max_s=8.0),
        pipeline_factory=ScriptedPipeline)


class TestCheckpointStore:
    def test_save_restore_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        payload = {"tick": 7, "state": [1, 2, {"x": None}]}
        info = store.save("fleet", payload, tick=7)
        assert info.kind == "fleet" and info.seq == 1 and info.tick == 7
        restored = store.restore_latest("fleet")
        assert restored.payload == payload
        assert restored.info.digest == info.digest
        assert restored.skipped == ()
        assert store.counters["saved"] == 1
        assert store.counters["restored"] == 1

    def test_seq_is_monotonic_and_latest_probes(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for k in range(3):
            store.save("fleet", {"k": k}, tick=k)
        info = store.latest("fleet")
        assert info.seq == 3 and info.tick == 2
        assert store.latest("absent") is None

    def test_retention_rotates_old_snapshots(self, tmp_path):
        store = CheckpointStore(str(tmp_path), retain=2)
        for k in range(5):
            store.save("fleet", {"k": k}, tick=k)
        live = sorted(p.name for p in tmp_path.glob("fleet-*.ckpt.json"))
        assert len(live) == 2
        assert store.counters["rotated"] == 3
        assert store.restore_latest("fleet").payload == {"k": 4}

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointStore(str(tmp_path), retain=0)
        with pytest.raises(ConfigurationError):
            CheckpointStore(str(tmp_path), durability="psync")
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(ConfigurationError):
            store.save("Not A Kind!", {})

    def test_empty_store_refuses_typed(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(DataQualityError, match="none on disk"):
            store.restore_latest("fleet")

    def test_corrupt_newest_quarantined_older_wins(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("fleet", {"k": "old"}, tick=1)
        newest = store.save("fleet", {"k": "new"}, tick=2)
        with open(newest.path, "rb") as fh:
            data = bytearray(fh.read())
        data[len(data) // 2] ^= 0x01
        with open(newest.path, "wb") as fh:
            fh.write(bytes(data))
        restored = store.restore_latest("fleet")
        assert restored.payload == {"k": "old"}
        assert len(restored.skipped) == 1
        qdir = tmp_path / "quarantine"
        moved = list(qdir.glob("fleet-*.ckpt.json"))
        assert len(moved) == 1
        reason = (qdir / (moved[0].name + ".reason")).read_text()
        assert reason  # provenance survives with the evidence
        assert store.counters["quarantined"] == 1

    def test_corrupt_manifest_quarantined_restore_still_works(
            self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("fleet", {"k": 1}, tick=1)
        manifest = tmp_path / "MANIFEST-fleet.json"
        manifest.write_text("{ not json")
        restored = store.restore_latest("fleet")
        assert restored.payload == {"k": 1}
        assert list((tmp_path / "quarantine").glob("MANIFEST-*"))

    def test_manifest_digest_disagreement_refused(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("fleet", {"k": "old"}, tick=1)
        newest = store.save("fleet", {"k": "new"}, tick=2)
        # A valid-looking snapshot whose digest the manifest disavows is
        # a swap, not a crash artifact: self-consistent but foreign.
        body = json.loads(open(newest.path).read())
        body["payload"] = {"k": "swapped"}
        canonical = json.dumps(
            {k: v for k, v in body.items() if k != "digest"},
            sort_keys=True, separators=(",", ":"))
        import hashlib
        body["digest"] = hashlib.blake2b(
            canonical.encode(), digest_size=16).hexdigest()
        with open(newest.path, "w") as fh:
            json.dump(body, fh)
        restored = store.restore_latest("fleet")
        assert restored.payload == {"k": "old"}
        assert any("manifest" in reason for _, reason in restored.skipped)

    def test_verify_is_read_only(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        info = store.save("fleet", {"k": 1}, tick=1)
        with open(info.path, "ab") as fh:
            fh.write(b"garbage")
        report = store.verify()
        assert any(reason for _, reason in report["fleet"])
        # Nothing moved: verify() observes, restore_latest() acts.
        assert (tmp_path / "fleet-00000001.ckpt.json").exists()
        assert not list((tmp_path / "quarantine").iterdir())

    def test_counters_match_perf_deltas(self, tmp_path):
        before = dict(perf.snapshot()["counters"])
        store = CheckpointStore(str(tmp_path), retain=1)
        store.save("fleet", {"k": 0}, tick=0)
        store.save("fleet", {"k": 1}, tick=1)
        store.restore_latest("fleet")
        for name, n in store.counters.items():
            key = f"durability.{name}"
            assert perf.counter_value(key) - before.get(key, 0) == n

    def test_written_text_is_canonical_full_body(self, tmp_path):
        """``save`` splices the digest into the one encode of the body;
        the result must be the canonical text of the whole body."""
        store = CheckpointStore(str(tmp_path))
        payload = {"z": [1.5, float("nan"), None], "a": {"b": "\u00e9"}}
        info = store.save("fleet", payload, tick=3)
        body = {"format": store_module.STORE_FORMAT, "kind": "fleet",
                "seq": 1, "tick": 3, "payload": payload}
        assert info.digest == store_module._digest(body)
        text = (tmp_path / "fleet-00000001.ckpt.json").read_text()
        assert text == store_module._canonical(
            {**body, "digest": info.digest}) + "\n"
        assert info.n_bytes == len(text) - 1
        manifest = (tmp_path / "MANIFEST-fleet.json").read_text()
        assert manifest == store_module._canonical(json.loads(manifest)) \
            + "\n"

    def test_steady_state_save_encodes_once_and_reverifies_nothing(
            self, tmp_path, monkeypatch):
        store = CheckpointStore(str(tmp_path), retain=4,
                                durability="flush")
        for k in range(6):
            store.save("fleet", {"k": k}, tick=k)
        verified, encoded = [], []
        full_check = CheckpointStore._verify_file
        canonical = store_module._canonical

        def spy_verify(self, name, *args):
            verified.append(name)
            return full_check(self, name, *args)

        def spy_canonical(body):
            if "payload" in body:
                encoded.append(body["payload"])
            return canonical(body)

        monkeypatch.setattr(CheckpointStore, "_verify_file", spy_verify)
        monkeypatch.setattr(store_module, "_canonical", spy_canonical)
        payloads = [{"k": k} for k in range(6, 9)]
        for k, payload in enumerate(payloads, 6):
            store.save("fleet", payload, tick=k)
        assert verified == []
        assert encoded == payloads
        # Changed bytes always take the full check.
        newest = tmp_path / "fleet-00000009.ckpt.json"
        newest.write_text(newest.read_text().replace('"k":8', '"k":0'))
        store.save("fleet", {"k": 9}, tick=9)
        assert set(verified) == {newest.name}
        listed = json.loads((tmp_path / "MANIFEST-fleet.json").read_text())
        assert [e["seq"] for e in listed["entries"]] == [7, 8, 10]


class TestFleetSupervisor:
    def test_checkpoint_every_validated(self):
        with pytest.raises(ConfigurationError):
            FleetSupervisor(checkpoint_every=0)

    def test_inject_crash_range_checked(self):
        sup = _supervised()
        with pytest.raises(ConfigurationError):
            sup.inject_crash(99)

    def test_crash_contained_to_one_shard(self, tmp_path):
        sup = _supervised(CheckpointStore(str(tmp_path)))
        for k in range(1, 5):
            _drive(sup, float(k))
        healthy_sessions = sup.total_sessions
        sup.inject_crash(0)
        snaps = _drive(sup, 5.0)
        assert sup.failed and 0 in sup.failed
        # The healthy shard still served this tick.
        shard1 = {b for b in BEACONS
                  if sup.fleet.router.shard_for(b) == 1}
        assert shard1 <= set(snaps)
        assert sup.counters["shard_failed"] == 1
        # Recovery: backoff admits a retry within a few ticks and the
        # journal re-drive brings every session back.
        for k in range(6, 10):
            _drive(sup, float(k))
            if not sup.failed:
                break
        assert not sup.failed
        assert sup.restarts == 1
        assert sup.total_sessions == healthy_sessions
        assert sup.counters["shard_restarted"] == 1

    def test_restarted_shard_is_digest_identical_to_twin(self, tmp_path):
        sup = _supervised(CheckpointStore(str(tmp_path)))
        twin = TrackingFleet(FleetConfig(n_shards=2),
                             pipeline_factory=ScriptedPipeline)
        last_sup = last_twin = None
        for k in range(1, 12):
            t = float(k)
            if k == 6:
                sup.inject_crash(0)
            last_sup = _drive(sup, t)
            last_twin = _drive(twin, t)
        assert not sup.failed and sup.restarts == 1
        assert snapshot_digest(last_sup) == snapshot_digest(last_twin)

    def test_checkpoint_deferred_while_failed(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        sup = _supervised(store, checkpoint_every=100)
        for k in range(1, 4):
            _drive(sup, float(k))
        sup.checkpoint_now(3.0)
        assert store.latest("fleet").tick == 3
        sup.inject_crash(1)
        _drive(sup, 4.0)
        assert sup.checkpoint_now(4.0) is False
        assert store.latest("fleet").tick == 3  # nothing new on disk
        assert sup.counters["checkpoint_deferred"] == 1
        # The journal kept growing so the restart can still re-drive.
        assert sup.stats()["supervisor"]["journal_ticks"] >= 1

    def test_stats_exposes_supervisor_block(self):
        sup = _supervised()
        _drive(sup, 1.0)
        block = sup.stats()["supervisor"]
        assert block["ticks"] == 1
        assert block["failed_shards"] == []
        assert "counters" in block


def _record_supervised_run(workdir, ticks=10, checkpoint_every=4):
    """A gateway→supervisor run that dies without sealing its trace."""
    store = CheckpointStore(str(workdir / "store"))
    sup = _supervised(store, checkpoint_every=checkpoint_every)
    gateway = IngestionGateway(GatewayConfig(), sup)
    trace = workdir / "run.trace"
    writer = TraceWriter(str(trace), meta=trace_meta(gateway))
    gateway.tap = writer
    last = None
    for k in range(1, ticks + 1):
        t = float(k)
        gateway.enqueue_scans([_scan(t - 0.4, b) for b in BEACONS])
        last = gateway.tick(t)
    writer.abort()  # crash: flushed records, no seal
    return store, trace, snapshot_digest(last)


class TestRecover:
    def test_point_in_time_recovery_is_digest_identical(self, tmp_path):
        store, trace, final_digest = _record_supervised_run(tmp_path)
        gateway, report = recover(
            str(tmp_path / "store"), str(trace),
            pipeline_factory=ScriptedPipeline, checkpoint_every=4)
        assert report.identical
        assert report.checkpoint_tick == 8
        assert report.trace_ticks == 10
        assert report.redriven_ticks == 2
        assert not report.trace_recovery.sealed
        # The caught-up gateway serves the next tick seamlessly.
        gateway.enqueue_scans([_scan(10.6, b) for b in BEACONS])
        snaps = gateway.tick(11.0)
        assert snapshot_digest(snaps)  # live, consistent state

    def test_second_segment_recovers_from_its_own_checkpoint(self, tmp_path):
        # Segment 0 dies at tick 10; its recovery starts segment 1 at run
        # tick 10, which dies at tick 15 after the tick-12 checkpoint.
        _record_supervised_run(tmp_path)
        gateway, first = recover(
            str(tmp_path / "store"), str(tmp_path / "run.trace"),
            pipeline_factory=ScriptedPipeline, checkpoint_every=4)
        assert first.checkpoint_tick + first.redriven_ticks == 10
        segment = str(tmp_path / "run-1.trace")
        writer = TraceWriter(segment, meta=trace_meta(gateway))
        gateway.tap = writer
        for k in range(11, 16):
            t = float(k)
            gateway.enqueue_scans([_scan(t - 0.4, b) for b in BEACONS])
            gateway.tick(t)
        writer.abort()
        _, report = recover(
            str(tmp_path / "store"), segment,
            pipeline_factory=ScriptedPipeline, checkpoint_every=4,
            trace_start_tick=10)
        assert report.checkpoint_tick == 12
        assert report.trace_ticks == 5
        assert report.redriven_ticks == 3  # run ticks 13..15
        assert report.identical

    def test_trace_segment_newer_than_snapshot_refused(self, tmp_path):
        _record_supervised_run(tmp_path)
        with pytest.raises(DataQualityError, match="no readable trace"):
            recover(str(tmp_path / "store"), str(tmp_path / "run.trace"),
                    pipeline_factory=ScriptedPipeline, trace_start_tick=50)

    def test_empty_store_refused(self, tmp_path):
        _record_supervised_run(tmp_path)
        empty = tmp_path / "empty-store"
        empty.mkdir()
        with pytest.raises(DataQualityError):
            recover(str(empty), str(tmp_path / "run.trace"),
                    pipeline_factory=ScriptedPipeline)

    def test_foreign_snapshot_payload_refused(self, tmp_path):
        _record_supervised_run(tmp_path)
        store = CheckpointStore(str(tmp_path / "store"))
        store.save("fleet", {"not": "a supervisor checkpoint"}, tick=99)
        with pytest.raises(DataQualityError, match="supervisor checkpoint"):
            recover(str(tmp_path / "store"), str(tmp_path / "run.trace"),
                    pipeline_factory=ScriptedPipeline)


@pytest.mark.chaos
class TestChaosSmoke:
    def test_seeded_kill_and_recover_cycle_passes(self, tmp_path):
        result = run_chaos(
            ChaosConfig(seed=0, ticks=24, n_beacons=6, kills=1,
                        shard_crashes=1, checkpoint_every=4,
                        durability="flush"),
            workdir=str(tmp_path))
        assert result.passed, result.to_dict()
        assert result.kill_ticks and result.recoveries
        assert result.replay_identical is True
        assert result.segment_traces_readable is True
