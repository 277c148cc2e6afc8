"""Tests for the sharded tracking fleet (repro.fleet).

Fast unit tests (the stub pipeline) run in tier-1; the end-to-end run
that drives the real pipeline under generated load carries the ``fleet``
marker and is excluded by default (run with ``-m fleet``).
"""

import json

import pytest

from repro.errors import ConfigurationError, DataQualityError
from repro.fleet import FleetConfig, ShardRouter, TrackingFleet
from repro.service import ServiceConfig, TrackingService
from repro.service.session import snapshot_key
from repro.types import ImuSample, RssiSample
from tests.stubs import ScriptedPipeline


def make_fleet(n_shards=2, max_sessions=256, max_total=None, salt=""):
    return TrackingFleet(
        FleetConfig(
            n_shards=n_shards,
            service=ServiceConfig(max_sessions=max_sessions),
            max_total_sessions=max_total,
            router_salt=salt,
        ),
        pipeline_factory=ScriptedPipeline,
    )


def scans_for(t, beacon_ids):
    return [
        RssiSample(t - off, -60.0, bid, 37)
        for bid in beacon_ids for off in (0.3, 0.2, 0.1)
    ]


def imu_for(t):
    return [ImuSample(t - 0.4 + 0.1 * i, 0.5, 0.0, 0.0) for i in range(4)]


def feed_fleet(fleet, t, beacon_ids):
    fleet.ingest_scans(scans_for(t, beacon_ids))
    fleet.ingest_imu(imu_for(t))
    return fleet.tick(t)


BEACONS = tuple(f"beacon-{k}" for k in range(8))


class TestShardRouter:
    def test_placement_is_process_stable(self):
        a = ShardRouter(4)
        b = ShardRouter(4)
        ids = [f"b{i}" for i in range(64)]
        assert [a.shard_for(i) for i in ids] == [b.shard_for(i) for i in ids]
        assert all(0 <= a.shard_for(i) < 4 for i in ids)

    def test_all_shards_get_traffic(self):
        router = ShardRouter(4)
        hit = {router.shard_for(f"b{i}") for i in range(200)}
        assert hit == {0, 1, 2, 3}

    def test_salt_moves_placements(self):
        plain = ShardRouter(4)
        salted = ShardRouter(4, salt="deployment-2")
        ids = [f"b{i}" for i in range(64)]
        assert ([plain.shard_for(i) for i in ids]
                != [salted.shard_for(i) for i in ids])

    def test_pins_override_hash_and_home_pin_erases(self):
        router = ShardRouter(4)
        home = router.hash_shard("x")
        other = (home + 1) % 4
        router.pin("x", other)
        assert router.shard_for("x") == other and "x" in router.pins
        router.pin("x", home)
        assert router.shard_for("x") == home and not router.pins
        with pytest.raises(ConfigurationError):
            router.pin("x", 4)

    def test_checkpoint_roundtrip_and_validation(self):
        router = ShardRouter(3, salt="s")
        router.pin("a", (router.hash_shard("a") + 1) % 3)
        restored = ShardRouter.restore(
            json.loads(json.dumps(router.checkpoint())))
        assert restored.shard_for("a") == router.shard_for("a")
        assert restored.pins == router.pins
        with pytest.raises(DataQualityError):
            ShardRouter.restore({"format": 99})
        cp = router.checkpoint()
        cp["pins"] = {"a": 7}
        with pytest.raises(DataQualityError):
            ShardRouter.restore(cp)


class TestFleetRouting:
    def test_sessions_land_on_their_hash_shard(self):
        fleet = make_fleet(n_shards=3)
        feed_fleet(fleet, 1.0, BEACONS)
        for bid in BEACONS:
            assert fleet.shard_of(bid) == fleet.router.shard_for(bid)
        assert fleet.total_sessions == len(BEACONS)

    def test_matches_single_service_bit_for_bit(self):
        # Sharding is pure partitioning: per-beacon snapshot streams must
        # equal one unsharded service fed the same stream. The same holds
        # through the supervisor across a live migration and a shard
        # crash: the crashed shard's beacons miss ticks until its restart,
        # and from the restart on every tick matches the service again.
        from repro.durability import FleetSupervisor

        fleet = make_fleet(n_shards=3)
        sup = FleetSupervisor(make_fleet(n_shards=3),
                              pipeline_factory=ScriptedPipeline)
        svc = TrackingService(ServiceConfig(), pipeline_factory=ScriptedPipeline)
        mover, dst, restart_tick = BEACONS[0], None, None
        for k in range(1, 13):
            t = float(k)
            if k == 4:
                dst = (sup.fleet.shard_of(mover) + 1) % 3
                sup.fleet.migrate(mover, dst)
                sup.checkpoint_now(t)
            if k == 7:
                sup.inject_crash(dst)
            fleet_snaps = feed_fleet(fleet, t, BEACONS)
            sup_snaps = feed_fleet(sup, t, BEACONS)
            svc.ingest_scans(scans_for(t, BEACONS))
            svc.ingest_imu(imu_for(t))
            svc_snaps = svc.tick_batch(t)
            assert sorted(fleet_snaps) == sorted(svc_snaps)
            for bid in svc_snaps:
                assert snapshot_key(fleet_snaps[bid]) == snapshot_key(
                    svc_snaps[bid])
            if k > 7 and restart_tick is None and not sup.failed:
                restart_tick = k
            if k < 7 or restart_tick is not None:
                assert sorted(sup_snaps) == sorted(svc_snaps), k
            else:
                assert mover not in sup_snaps
            for bid in sup_snaps:
                assert snapshot_key(sup_snaps[bid]) == snapshot_key(
                    svc_snaps[bid]), (k, bid)
        assert sup.restarts == 1 and restart_tick is not None
        assert svc.stats()["counters"]["fixes_accepted"] > 0

    def test_fleet_admission_cap_refuses_new_beacons(self):
        fleet = make_fleet(n_shards=2, max_total=4)
        feed_fleet(fleet, 1.0, BEACONS[:4])
        assert fleet.total_sessions == 4
        snaps = feed_fleet(fleet, 2.0, BEACONS)  # 4 more knock on the door
        assert fleet.total_sessions == 4
        assert sorted(snaps) == sorted(BEACONS[:4])  # admitted still served
        assert fleet.admission_refused == 4
        assert fleet.refused_samples == 4 * 3
        feed_fleet(fleet, 3.0, BEACONS)
        assert fleet.admission_refused == 4  # distinct beacons, not samples
        assert fleet.refused_samples == 8 * 3

    def test_shard_tick_time_leaves_out_the_shared_solve(self, monkeypatch):
        # A shard's tick time is its own phases; the one fit_batch the
        # fleet runs for every shard is no shard's time.
        import time

        import repro.service.service as service_module

        real, calls = service_module.fit_batch, []

        def slow_fit_batch(requests, **kwargs):
            calls.append(len(requests))
            time.sleep(0.2)
            return real(requests, **kwargs)

        monkeypatch.setattr(service_module, "fit_batch", slow_fit_batch)
        fleet = make_fleet(n_shards=2)
        for k in range(1, 5):
            feed_fleet(fleet, float(k), BEACONS)
        # Solves are due at t = 1 and 3: one batch for both shards each.
        assert calls == [len(BEACONS), len(BEACONS)]
        assert all(0 < w.stats()["last_tick_wall_s"] < 0.2
                   for w in fleet.workers)

    def test_attempted_solves_are_the_submitted_requests(self, monkeypatch):
        # Sessions short of data (scripted shortages, and beacons heard
        # once a tick) are skipped before a request exists, so every
        # attempted solve is one request in a fit_batch call.
        import repro.service.service as service_module

        real, submitted = service_module.fit_batch, []

        def counting_fit_batch(requests, **kwargs):
            submitted.append(len(requests))
            return real(requests, **kwargs)

        monkeypatch.setattr(service_module, "fit_batch", counting_fit_batch)
        fleet = TrackingFleet(
            FleetConfig(n_shards=2),
            pipeline_factory=lambda: ScriptedPipeline(
                ["nodata", "ok", "nodata", "ok"]))
        sparse = BEACONS[:3]
        for k in range(1, 9):
            t = float(k)
            fleet.ingest_scans(scans_for(t, BEACONS[3:]) + [
                RssiSample(t - 0.1, -60.0, b, 37) for b in sparse])
            fleet.ingest_imu(imu_for(t))
            fleet.tick(t)
        counters = fleet.stats()["counters"]
        assert counters["solves_skipped_nodata"] >= 2 * len(BEACONS)
        assert counters["fixes_accepted"] > 0
        assert counters["solves_attempted"] == sum(submitted)

    def test_per_shard_cap_still_applies(self):
        fleet = make_fleet(n_shards=2, max_sessions=1)
        feed_fleet(fleet, 1.0, BEACONS)
        stats = fleet.stats()
        assert stats["sessions"] == 2  # one per shard
        assert stats["sessions_shed"] == len(BEACONS) - 2

    def test_nonfinite_tick_rejected(self):
        fleet = make_fleet()
        with pytest.raises(ConfigurationError):
            fleet.tick(float("nan"))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(n_shards=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(max_total_sessions=0)


class TestMigration:
    def test_snapshot_stream_identical_with_and_without_migration(self):
        # The tentpole property: a migrated session continues exactly as
        # if it had never moved.
        base = make_fleet(n_shards=2)
        moved = make_fleet(n_shards=2)
        history_a, history_b = [], []
        for k in range(1, 9):
            t = float(k)
            if k == 5:
                for bid in BEACONS[::2]:
                    src = moved.shard_of(bid)
                    moved.migrate(bid, (src + 1) % 2)
            history_a.append(feed_fleet(base, t, BEACONS))
            history_b.append(feed_fleet(moved, t, BEACONS))
        assert moved.migrations == len(BEACONS[::2])
        for snaps_a, snaps_b in zip(history_a, history_b):
            assert sorted(snaps_a) == sorted(snaps_b)
            for bid in snaps_a:
                assert snapshot_key(snaps_a[bid]) == snapshot_key(
                    snaps_b[bid])

    def test_traffic_follows_the_pin(self):
        fleet = make_fleet(n_shards=2)
        feed_fleet(fleet, 1.0, BEACONS[:2])
        bid = BEACONS[0]
        dst = (fleet.shard_of(bid) + 1) % 2
        fleet.migrate(bid, dst)
        assert fleet.shard_of(bid) == dst
        feed_fleet(fleet, 2.0, BEACONS[:2])
        assert fleet.shard_of(bid) == dst  # new scans did not re-home it

    def test_migrate_validation(self):
        fleet = make_fleet(n_shards=2)
        feed_fleet(fleet, 1.0, BEACONS[:1])
        with pytest.raises(ConfigurationError):
            fleet.migrate("beacon-0", 9)
        with pytest.raises(ConfigurationError):
            fleet.migrate("never-seen", 0)
        before = fleet.migrations
        fleet.migrate("beacon-0", fleet.shard_of("beacon-0"))  # no-op
        assert fleet.migrations == before

    def test_drain_empties_shard_and_rebalance_returns_home(self):
        fleet = make_fleet(n_shards=3)
        feed_fleet(fleet, 1.0, BEACONS)
        victim = next(s for s in range(3)
                      if fleet.workers[s].n_sessions > 0)
        moves = fleet.drain(victim)
        assert moves and fleet.workers[victim].n_sessions == 0
        assert fleet.total_sessions == len(BEACONS)
        feed_fleet(fleet, 2.0, BEACONS)  # drained shard stays empty
        assert fleet.workers[victim].n_sessions == 0
        fleet.rebalance()
        assert not fleet.router.pins
        for bid in BEACONS:
            assert fleet.shard_of(bid) == fleet.router.hash_shard(bid)

    def test_drain_the_only_shard_refused(self):
        fleet = make_fleet(n_shards=1)
        with pytest.raises(ConfigurationError):
            fleet.drain(0)


class TestFleetCheckpoint:
    def test_roundtrip_resumes_bit_identical(self):
        full = make_fleet(n_shards=2)
        part = make_fleet(n_shards=2)
        for k in range(1, 4):
            feed_fleet(full, float(k), BEACONS)
            feed_fleet(part, float(k), BEACONS)
        part.migrate(BEACONS[0], (part.shard_of(BEACONS[0]) + 1) % 2)
        full.migrate(BEACONS[0], (full.shard_of(BEACONS[0]) + 1) % 2)
        cp = json.loads(json.dumps(part.checkpoint()))
        # The IMU rows appear once, in the fleet's own ring.
        assert len(cp["imu"]) == len(part.imu.buffer) > 0
        assert not any("imu" in w["service"] for w in cp["workers"])
        resumed = TrackingFleet.restore(cp, pipeline_factory=ScriptedPipeline)
        assert resumed.restores == 1
        assert resumed.router.pins == full.router.pins
        for k in range(4, 8):
            a = feed_fleet(full, float(k), BEACONS)
            b = feed_fleet(resumed, float(k), BEACONS)
            assert sorted(a) == sorted(b)
            for bid in a:
                assert snapshot_key(a[bid]) == snapshot_key(b[bid])

    def test_cross_field_inconsistencies_rejected(self):
        fleet = make_fleet(n_shards=2)
        feed_fleet(fleet, 1.0, BEACONS)
        good = fleet.checkpoint()

        cp = json.loads(json.dumps(good))
        cp["config"]["n_shards"] = 3  # router/workers still say 2
        with pytest.raises(DataQualityError):
            TrackingFleet.restore(cp, pipeline_factory=ScriptedPipeline)

        cp = json.loads(json.dumps(good))
        cp["workers"][0]["shard_id"] = 1  # claims a shard it is not at
        with pytest.raises(DataQualityError):
            TrackingFleet.restore(cp, pipeline_factory=ScriptedPipeline)

        cp = json.loads(json.dumps(good))
        cp["router"]["salt"] = "different"  # sessions no longer route home
        with pytest.raises(DataQualityError):
            TrackingFleet.restore(cp, pipeline_factory=ScriptedPipeline)

        cp = json.loads(json.dumps(good))
        cp["workers"][1]["service"].update(imu=good["imu"], imu_shed=0)
        with pytest.raises(DataQualityError):  # a shard with its own ring
            TrackingFleet.restore(cp, pipeline_factory=ScriptedPipeline)

        with pytest.raises(DataQualityError):
            TrackingFleet.restore({"format": -1},
                                  pipeline_factory=ScriptedPipeline)

        # The untouched checkpoint still restores.
        resumed = TrackingFleet.restore(
            json.loads(json.dumps(good)), pipeline_factory=ScriptedPipeline)
        assert resumed.total_sessions == fleet.total_sessions


# -- load generator (small but real simulation) -------------------------------


class TestLoadGenerator:
    def test_stream_is_deterministic_and_shaped(self):
        from repro.sim.load import LoadConfig, generate_load

        cfg = LoadConfig(duration_s=10.0, n_beacons=5, template_beacons=2,
                         rate_hz=4.0, seed=9)
        a = generate_load(cfg)
        b = generate_load(cfg)
        assert a.n_beacons == 5 and a.duration_s == 10.0
        assert len(a.ticks) == 10
        assert a.offered_samples > 0
        assert a.offered_samples == b.offered_samples
        for (ta, sa, ia), (tb, sb, ib) in zip(a.ticks, b.ticks):
            assert ta == tb and len(sa) == len(sb) and len(ia) == len(ib)
            assert [s.rssi for s in sa] == [s.rssi for s in sb]
        ids = {s.beacon_id for _, scans, _ in a.ticks for s in scans}
        assert ids == {f"b{i:05d}" for i in range(5)}

    def test_arrival_models_differ(self):
        from repro.sim.load import LoadConfig, generate_load

        base = dict(duration_s=10.0, n_beacons=3, template_beacons=2, seed=4)
        counts = {
            arrival: generate_load(
                LoadConfig(arrival=arrival, **base)).offered_samples
            for arrival in ("poisson", "periodic", "bursty")
        }
        assert counts["bursty"] < counts["periodic"]
        assert len(set(counts.values())) > 1

    def test_config_validation(self):
        from repro.sim.load import LoadConfig

        with pytest.raises(ConfigurationError):
            LoadConfig(n_beacons=0)
        with pytest.raises(ConfigurationError):
            LoadConfig(arrival="fractal")
        with pytest.raises(ConfigurationError):
            LoadConfig(template_beacons=0)
        with pytest.raises(ConfigurationError):
            LoadConfig(burst_duty=0.0)


# -- end-to-end under generated load (real pipeline; excluded from tier-1) ----


def _loaded_fleet():
    from repro.service import SessionConfig
    from repro.service.health import HealthConfig

    service = ServiceConfig(
        session=SessionConfig(
            window_s=20.0,
            health=HealthConfig(stale_after_s=6.0, lost_after_s=60.0),
        ),
    )
    return TrackingFleet(FleetConfig(n_shards=2, service=service))


def _drive_load(fleet, stream, migrate_at_tick=None):
    """Replay ``stream`` into ``fleet``; per-beacon ``snapshot_key`` streams.

    Before tick ``migrate_at_tick`` (1-based) every second live session, in
    sorted beacon order, moves to the next shard.
    """
    keys = {}
    for k, (t, scans, imu) in enumerate(stream.ticks, start=1):
        if k == migrate_at_tick:
            live = sorted(b for w in fleet.workers for b in w.service.sessions)
            for beacon_id in live[::2]:
                fleet.migrate(beacon_id,
                              (fleet.shard_of(beacon_id) + 1) % 2)
        fleet.ingest_scans(scans)
        fleet.ingest_imu(imu)
        for beacon_id, snap in fleet.tick(t).items():
            keys.setdefault(beacon_id, []).append(snapshot_key(snap))
    return keys


@pytest.mark.fleet
class TestFleetUnderLoad:
    def test_migration_under_real_load_is_bit_identical(self):
        from repro.sim.load import LoadConfig, generate_load

        stream = generate_load(LoadConfig(
            duration_s=25.0, n_beacons=8, template_beacons=2, seed=3))
        plain, moved = _loaded_fleet(), _loaded_fleet()
        keys_plain = _drive_load(plain, stream)
        keys_moved = _drive_load(moved, stream, migrate_at_tick=12)
        assert moved.migrations > 0
        for fleet in (plain, moved):
            stats = fleet.stats()
            assert stats["counters"]["fixes_accepted"] > 0
            assert stats["sessions"] == 8
        assert keys_plain == keys_moved

    def test_shard_restart_under_real_load_is_bit_identical(self):
        # A restarted shard re-drives its missed ticks against the fleet
        # ring rebuilt from the last checkpoint plus the journal's IMU
        # rows; from its restart on, the supervised fleet's ticks equal an
        # uninterrupted fleet's.
        from repro.durability import FleetSupervisor
        from repro.service.session import snapshot_digest
        from repro.sim.load import LoadConfig, generate_load

        stream = generate_load(LoadConfig(
            duration_s=25.0, n_beacons=8, template_beacons=2, seed=3))
        plain = _loaded_fleet()
        sup = FleetSupervisor(_loaded_fleet(), checkpoint_every=6)
        restarted_at = None
        for k, (t, scans, imu) in enumerate(stream.ticks, start=1):
            if k == 15:
                sup.inject_crash(1)
            for target in (plain, sup):
                target.ingest_scans(scans)
                target.ingest_imu(imu)
            want, got = plain.tick(t), sup.tick(t)
            if k > 15 and restarted_at is None and not sup.failed:
                restarted_at = k
            if restarted_at is not None:
                assert snapshot_digest(got) == snapshot_digest(want), k
        assert sup.restarts == 1 and restarted_at is not None
        assert plain.stats()["counters"]["fixes_accepted"] > 0


class TestSolverWorkUnderLoad:
    """A regression guard on the warm path's solver work (tier-1).

    One fixed LOS ``generate_load`` stream at 8 Hz through a 2-shard fleet
    on the real pipeline. Both counts are deterministic. The bounds are the
    values measured once the LM step held bound-pinned parameters and warm
    seeds were re-anchored into each window's frame; before that the same
    stream ran 20 kernel calls to ``max_iter`` and rejected 6 warm fits.
    """

    MAX_ITER_CALLS = 5
    WARM_REJECTED = 1

    def test_max_iter_calls_and_warm_rejections_bounded(self):
        from repro import perf
        from repro.sim.load import LoadConfig, generate_load

        stream = generate_load(LoadConfig(
            duration_s=40.0, n_beacons=6, template_beacons=3, seed=1,
            scenario_index=1, arrival="periodic", rate_hz=8.0))
        fleet = _loaded_fleet()
        names = ("estimator.lm_iterations", "estimator.lm_max_iter_calls",
                 "solver.warm_rejected")
        before = {name: perf.counter_value(name) for name in names}
        for t, scans, imu in stream.ticks:
            fleet.ingest_scans(scans)
            fleet.ingest_imu(imu)
            fleet.tick(t)
        grew = {name: perf.counter_value(name) - before[name]
                for name in names}
        assert fleet.stats()["counters"]["fixes_accepted"] == 120
        assert grew["estimator.lm_iterations"] > 0
        assert grew["estimator.lm_max_iter_calls"] <= self.MAX_ITER_CALLS
        assert grew["solver.warm_rejected"] <= self.WARM_REJECTED
