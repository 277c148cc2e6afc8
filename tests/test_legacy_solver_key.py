"""Old checkpoints and traces that carry keys of removed options.

Session configs used to carry a ``"solver"`` key, and every checkpoint and
gateway trace header written then has it. ``SessionConfig.from_dict`` is
the one reader of all of them, with one rule: ``"elliptical"`` is dropped
(it is the only solver), any other value raises a typed
:class:`~repro.errors.ConfigurationError` naming the removed backend. The
rule is checked on each carrier: a session checkpoint, a fleet checkpoint
and a gateway trace header.

Session configs also carried ``"warm_start"`` and ``"warm_max_age_s"``
while the warm start could be switched off or aged differently. ``true``
and ``30.0``, what every session now does, are dropped; any other value
raises a typed :class:`~repro.errors.ConfigurationError` naming the key,
on each carrier too.

Fleet configs used to carry ``"batch_ticks"``, which chose between a
sequential and a batched tick that were bit-identical by contract. Fleet
checkpoints and trace headers that carry it restore and replay as before,
whatever its value.

Service configs used to carry ``"imu_window_s"``, the IMU ring's own age
limit, and format-1 fleet checkpoints kept one replica IMU ring per shard.
The committed fixtures in ``tests/data`` (see its README) were written
then: they restore and replay with the digests recorded when they were
written, and replicas that differ are refused.
"""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, DataQualityError
from repro.fleet import FleetConfig, TrackingFleet
from repro.gateway import (
    IngestionGateway,
    TraceWriter,
    replay,
    snapshot_digest,
    trace_meta,
)
from repro.gateway.gateway import GatewayConfig
from repro.service import ServiceConfig, SessionConfig, TrackingSession
from repro.types import ImuSample, RssiSample

DATA = Path(__file__).parent / "data"


def _with_session_keys(node, **keys):
    """A deep copy of ``node`` with ``keys`` set on every session config."""
    if isinstance(node, list):
        return [_with_session_keys(v, **keys) for v in node]
    if not isinstance(node, dict):
        return node
    out = {k: _with_session_keys(v, **keys) for k, v in node.items()}
    if "window_s" in out and "solve_period_s" in out:
        out.update(keys)
    return out


#: The warm-start keys as configs carried them while they were settable,
#: at the values every session now has.
_FIXED_WARM = {"warm_start": True, "warm_max_age_s": 30.0}

#: Values of those keys that ask for a behaviour sessions no longer have.
_OTHER_WARM = [("warm_start", False), ("warm_start", 1),
               ("warm_max_age_s", 10.0), ("warm_max_age_s", float("inf")),
               ("warm_max_age_s", True)]


def _scans(t, beacons=("b1", "b2", "b3")):
    return [RssiSample(t - off, -60.0 - off, bid, 37)
            for bid in beacons for off in (0.3, 0.2, 0.1)]


def _imu(t):
    return [ImuSample(t - 0.4 + 0.1 * i, 0.5, 0.0, 0.0) for i in range(4)]


def _feed(fleet, t):
    fleet.ingest_scans(_scans(t))
    fleet.ingest_imu(_imu(t))
    return snapshot_digest(fleet.tick(t))


class TestSessionConfigRule:
    def test_elliptical_key_is_dropped(self):
        d = SessionConfig().to_dict()
        assert "solver" not in d
        assert SessionConfig.from_dict(
            dict(d, solver="elliptical")) == SessionConfig()

    @pytest.mark.parametrize("backend", ["particle", "ekf", "levenberg"])
    def test_removed_backend_raises_typed(self, backend):
        d = dict(SessionConfig().to_dict(), solver=backend)
        with pytest.raises(ConfigurationError, match=repr(backend)):
            SessionConfig.from_dict(d)

    def test_fixed_warm_keys_are_dropped(self):
        d = SessionConfig().to_dict()
        assert not set(_FIXED_WARM) & set(d)
        assert SessionConfig.from_dict(dict(d, **_FIXED_WARM)) == SessionConfig()

    @pytest.mark.parametrize("key, value", _OTHER_WARM)
    def test_other_warm_values_raise_typed(self, key, value):
        d = dict(SessionConfig().to_dict(), **{key: value})
        with pytest.raises(ConfigurationError, match=key):
            SessionConfig.from_dict(d)


class TestSessionCheckpoint:
    def _checkpoint(self):
        s = TrackingSession("b0")
        s.ingest(_scans(1.0, beacons=("b0",)))
        return s, json.loads(json.dumps(s.checkpoint()))

    def test_elliptical_key_restores(self):
        s, cp = self._checkpoint()
        restored = TrackingSession.restore(_with_session_keys(cp, solver="elliptical"))
        assert restored.config == s.config
        assert restored.checkpoint() == s.checkpoint()

    def test_removed_backend_raises_typed(self):
        _, cp = self._checkpoint()
        with pytest.raises(ConfigurationError, match="'particle'"):
            TrackingSession.restore(_with_session_keys(cp, solver="particle"))

    def test_fixed_warm_keys_restore(self):
        s, cp = self._checkpoint()
        restored = TrackingSession.restore(
            _with_session_keys(cp, **_FIXED_WARM))
        assert restored.checkpoint() == s.checkpoint()

    def test_other_warm_value_raises_typed(self):
        _, cp = self._checkpoint()
        with pytest.raises(ConfigurationError, match="warm_start"):
            TrackingSession.restore(_with_session_keys(cp, warm_start=False))


class TestFleetCheckpoint:
    def _fleet(self):
        return TrackingFleet(FleetConfig(
            n_shards=2, service=ServiceConfig(max_sessions=8)))

    def test_elliptical_key_restores_and_continues_identically(self):
        fleet = self._fleet()
        for k in range(1, 4):
            _feed(fleet, float(k))
        cp = json.loads(json.dumps(fleet.checkpoint()))
        legacy = _with_session_keys(cp, solver="elliptical")
        legacy["config"]["batch_ticks"] = True
        assert legacy != cp
        restored = TrackingFleet.restore(legacy)
        resumed = TrackingFleet.restore(cp)
        for k in range(4, 7):
            assert _feed(restored, float(k)) == _feed(resumed, float(k))

    def test_removed_backend_raises_typed(self):
        fleet = self._fleet()
        _feed(fleet, 1.0)
        cp = json.loads(json.dumps(fleet.checkpoint()))
        with pytest.raises(ConfigurationError, match="'ekf'"):
            TrackingFleet.restore(_with_session_keys(cp, solver="ekf"))

    def test_fixed_warm_keys_restore_and_continue_identically(self):
        fleet = self._fleet()
        for k in range(1, 4):
            _feed(fleet, float(k))
        cp = json.loads(json.dumps(fleet.checkpoint()))
        restored = TrackingFleet.restore(_with_session_keys(cp, **_FIXED_WARM))
        resumed = TrackingFleet.restore(cp)
        for k in range(4, 7):
            assert _feed(restored, float(k)) == _feed(resumed, float(k))

    def test_other_warm_value_raises_typed(self):
        fleet = self._fleet()
        _feed(fleet, 1.0)
        cp = json.loads(json.dumps(fleet.checkpoint()))
        with pytest.raises(ConfigurationError, match="warm_max_age_s"):
            TrackingFleet.restore(
                _with_session_keys(cp, warm_max_age_s=10.0))


class TestTraceHeader:
    def _record(self, path, solver, session_keys=None, **fleet_keys):
        gw = IngestionGateway(GatewayConfig())
        meta = _with_session_keys(trace_meta(gw), solver=solver,
                                  **(session_keys or {}))
        assert meta["fleet"]["service"]["session"]["solver"] == solver
        meta["fleet"].update(fleet_keys)
        with TraceWriter(str(path), meta=meta) as writer:
            gw.tap = writer
            for k in range(1, 5):
                t = float(k)
                gw.enqueue_scans(_scans(t))
                gw.enqueue_imu(_imu(t))
                gw.tick(t)

    def test_elliptical_key_replays_identically(self, tmp_path):
        path = tmp_path / "legacy.trace"
        self._record(path, "elliptical", batch_ticks=False)
        result = replay(str(path))
        assert result.ticks == 4 and result.identical

    def test_removed_backend_raises_typed(self, tmp_path):
        path = tmp_path / "ekf.trace"
        self._record(path, "ekf")
        with pytest.raises(ConfigurationError, match="'ekf'"):
            replay(str(path))

    def test_fixed_warm_keys_replay_identically(self, tmp_path):
        path = tmp_path / "warm.trace"
        self._record(path, "elliptical", session_keys=_FIXED_WARM)
        result = replay(str(path))
        assert result.ticks == 4 and result.identical

    def test_other_warm_value_raises_typed(self, tmp_path):
        path = tmp_path / "cold.trace"
        self._record(path, "elliptical",
                     session_keys={"warm_start": False})
        with pytest.raises(ConfigurationError, match="warm_start"):
            replay(str(path))


class TestReplicaRingCheckpoint:
    def _fixture(self):
        return json.loads((DATA / "fleet_format1.json").read_text())

    def test_restores_and_continues_with_recorded_digests(self):
        doc = self._fixture()
        cp = doc["checkpoint"]
        assert cp["format"] == 1
        services = [w["service"] for w in cp["workers"]]
        assert all("imu" in s and "imu_window_s" in s["config"]
                   for s in services)
        fleet = TrackingFleet.restore(cp)
        assert len(fleet.imu.buffer) == len(services[0]["imu"])
        for (t, scans, imu), want in zip(doc["ticks"], doc["digests"]):
            fleet.ingest_scans([RssiSample(*row) for row in scans])
            fleet.ingest_imu([ImuSample(*row) for row in imu])
            assert snapshot_digest(fleet.tick(t)) == want, t
        assert fleet.stats()["counters"]["fixes_accepted"] > 0
        again = fleet.checkpoint()
        assert again["format"] == 2 and "imu" in again
        assert not any("imu" in w["service"] for w in again["workers"])

    def test_differing_replicas_refused(self):
        cp = self._fixture()["checkpoint"]
        cp["workers"][1]["service"]["imu"].pop()
        with pytest.raises(DataQualityError, match="replica"):
            TrackingFleet.restore(cp)


class TestImuWindowTraceHeader:
    def test_replays_with_recorded_digests(self):
        path = DATA / "gateway_imu_window.trace"
        header = json.loads(path.read_text().splitlines()[0])
        assert "imu_window_s" in header["meta"]["fleet"]["service"]
        result = replay(str(path))
        assert result.ticks == 10 and result.identical

