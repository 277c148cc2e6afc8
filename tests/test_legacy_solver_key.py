"""Old checkpoints and traces that carry keys of removed options.

Session configs used to carry a ``"solver"`` key, and every checkpoint and
gateway trace header written then has it. ``SessionConfig.from_dict`` is
the one reader of all of them, with one rule: ``"elliptical"`` is dropped
(it is the only solver), any other value raises a typed
:class:`~repro.errors.ConfigurationError` naming the removed backend. The
rule is checked on each carrier: a session checkpoint, a fleet checkpoint
and a gateway trace header.

Fleet configs used to carry ``"batch_ticks"``, which chose between a
sequential and a batched tick that were bit-identical by contract. Fleet
checkpoints and trace headers that carry it restore and replay as before,
whatever its value.
"""

import json

import pytest

from repro.errors import ConfigurationError
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


def _with_solver(node, solver):
    """A deep copy of ``node`` with ``solver`` set on every session config."""
    if isinstance(node, list):
        return [_with_solver(v, solver) for v in node]
    if not isinstance(node, dict):
        return node
    out = {k: _with_solver(v, solver) for k, v in node.items()}
    if "window_s" in out and "solve_period_s" in out:
        out["solver"] = solver
    return out


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


class TestSessionCheckpoint:
    def _checkpoint(self):
        s = TrackingSession("b0")
        s.ingest(_scans(1.0, beacons=("b0",)))
        return s, json.loads(json.dumps(s.checkpoint()))

    def test_elliptical_key_restores(self):
        s, cp = self._checkpoint()
        restored = TrackingSession.restore(_with_solver(cp, "elliptical"))
        assert restored.config == s.config
        assert restored.checkpoint() == s.checkpoint()

    def test_removed_backend_raises_typed(self):
        _, cp = self._checkpoint()
        with pytest.raises(ConfigurationError, match="'particle'"):
            TrackingSession.restore(_with_solver(cp, "particle"))


class TestFleetCheckpoint:
    def _fleet(self):
        return TrackingFleet(FleetConfig(
            n_shards=2, service=ServiceConfig(max_sessions=8)))

    def test_elliptical_key_restores_and_continues_identically(self):
        fleet = self._fleet()
        for k in range(1, 4):
            _feed(fleet, float(k))
        cp = json.loads(json.dumps(fleet.checkpoint()))
        legacy = _with_solver(cp, "elliptical")
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
            TrackingFleet.restore(_with_solver(cp, "ekf"))


class TestTraceHeader:
    def _record(self, path, solver, **fleet_keys):
        gw = IngestionGateway(GatewayConfig())
        meta = _with_solver(trace_meta(gw), solver)
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
