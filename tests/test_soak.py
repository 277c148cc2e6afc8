"""Soak-harness tests: fast smoke in tier-1, full runs behind `-m soak`."""

import pytest

from repro.errors import ConfigurationError
from repro.service import ServiceConfig, SessionConfig
from repro.service.health import HealthConfig
from repro.sim.faults import FaultModel
from repro.sim.soak import SoakConfig, SoakResult, run_soak
from repro.world.scenarios import scenario

import numpy as np

from repro.sim.soak import long_walk


class TestSoakCliDefaults:
    @pytest.mark.parametrize("argv, outage_s", [
        ([], 60.0),                     # the 300 s acceptance soak
        (["--duration", "60"], 12.0),   # CI's 60 s soaks
        (["--duration", "60", "--outage-s", "20"], 20.0),
    ])
    def test_outage_length_scales_with_duration(self, monkeypatch, argv,
                                                outage_s):
        import repro.sim.soak as soak
        from repro.cli import main

        class Stop(Exception):
            pass

        seen = []

        def fake_run_soak(config):
            seen.append(config.fault.outage_s)
            raise Stop
        monkeypatch.setattr(soak, "run_soak", fake_run_soak)
        with pytest.raises(Stop):
            main(["soak", *argv])
        assert seen == [outage_s]


class TestLongWalk:
    def test_covers_duration_within_bounds(self):
        sc = scenario(6)
        walk = long_walk(sc.observer_start, np.random.default_rng(0),
                         bounds=(sc.floorplan.width, sc.floorplan.height),
                         duration_s=120.0)
        assert walk.times[-1] >= 120.0
        for p in walk.waypoints:
            assert 0.0 <= p.x <= sc.floorplan.width
            assert 0.0 <= p.y <= sc.floorplan.height

    def test_seeded_walks_are_reproducible(self):
        sc = scenario(6)
        kw = dict(bounds=(sc.floorplan.width, sc.floorplan.height),
                  duration_s=30.0)
        a = long_walk(sc.observer_start, np.random.default_rng(7), **kw)
        b = long_walk(sc.observer_start, np.random.default_rng(7), **kw)
        assert a.waypoints == b.waypoints and a.times == b.times

    def test_impossible_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            long_walk(scenario(1).observer_start, np.random.default_rng(0),
                      bounds=(0.5, 0.5), duration_s=10.0)


class TestSoakConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            SoakConfig(tick_s=float("nan"))
        with pytest.raises(ConfigurationError):
            SoakConfig(n_beacons=0)
        with pytest.raises(ConfigurationError):
            SoakConfig(duration_s=60.0, checkpoint_t=60.0)


def smoke_config(**kwargs):
    """A scaled-down acceptance scenario that runs in a few seconds:
    bursty loss plus an outage long enough to outlive the solve window."""
    defaults = dict(
        duration_s=90.0,
        seed=7,
        checkpoint_t=45.0,
        fault=FaultModel(loss_rate=0.3, n_outages=1, outage_s=35.0),
        service=ServiceConfig(
            session=SessionConfig(
                window_s=20.0,
                health=HealthConfig(stale_after_s=6.0, lost_after_s=60.0),
            ),
        ),
    )
    defaults.update(kwargs)
    return SoakConfig(**defaults)


class TestSoakSmoke:
    @pytest.fixture(scope="class")
    def result(self):
        return run_soak(smoke_config())

    def test_no_untyped_exceptions(self, result):
        assert result.errors == ()
        assert result.untyped_errors == 0

    def test_session_rides_out_the_outage(self, result):
        states = result.states_visited("b0")
        assert states[0] == "ACQUIRING"
        i_h = states.index("HEALTHY")
        assert "STALE" in states[i_h:]
        i_s = states.index("STALE", i_h)
        assert "HEALTHY" in states[i_s:]  # re-acquired after the outage

    def test_checkpoint_resume_bit_identical(self, result):
        assert result.checkpoint_equal is True
        assert result.divergence_t is None

    def test_work_was_done_and_counted(self, result):
        assert result.counters["fixes_accepted"] > 10
        assert result.counters["solves_skipped_nodata"] > 0  # the outage
        assert result.dwell["b0"]["STALE"] > 0.0

    def test_result_shape(self, result):
        assert isinstance(result, SoakResult)
        assert result.ticks == 90
        assert result.stats["sessions"] == 1


class TestSoakDeterminism:
    def test_same_seed_same_outcome(self):
        cfg = smoke_config(duration_s=40.0, checkpoint_t=None,
                           fault=FaultModel(loss_rate=0.2))
        a, b = run_soak(cfg), run_soak(cfg)
        assert a.counters == b.counters
        assert a.transitions == b.transitions
        assert [s.track for s in a.snapshots["b0"]] == [
            s.track for s in b.snapshots["b0"]]


@pytest.mark.soak
class TestSoakFull:
    """The ISSUE acceptance run: 300 s, 30% bursty loss, two 60 s outages."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_soak(SoakConfig(
            duration_s=300.0,
            seed=7,
            checkpoint_t=150.0,
            fault=FaultModel(loss_rate=0.3, n_outages=2, outage_s=60.0),
        ))

    def test_zero_untyped_exceptions(self, result):
        assert result.untyped_errors == 0
        assert result.errors == ()

    def test_healthy_stale_healthy(self, result):
        states = result.states_visited("b0")
        i_h = states.index("HEALTHY")
        i_s = states.index("STALE", i_h)
        assert "HEALTHY" in states[i_s:]

    def test_mid_run_checkpoint_bit_identical(self, result):
        assert result.checkpoint_equal is True

    def test_multi_beacon_soak(self):
        r = run_soak(SoakConfig(
            duration_s=180.0, seed=3, n_beacons=3,
            fault=FaultModel(loss_rate=0.3, n_outages=1, outage_s=60.0),
        ))
        assert r.untyped_errors == 0
        assert r.stats["sessions"] == 3


class TestSoakResumeGate:
    def test_beacon_first_seen_after_the_cut_resumes_identically(
            self, monkeypatch):
        # b1's scans are withheld until after the checkpoint, so its
        # snapshot sequence is shorter than the resumed tail; the resume
        # gate compares tick digests, not per-beacon list suffixes.
        from repro.sim import soak

        build = soak._build_stream

        def late_b1(config):
            return [(t, tuple(s for s in scans
                              if s.beacon_id != "b1" or s.timestamp >= 15.0),
                     imu)
                    for t, scans, imu in build(config)]

        monkeypatch.setattr(soak, "_build_stream", late_b1)
        result = run_soak(SoakConfig(duration_s=40.0, seed=0, n_beacons=2,
                                     checkpoint_t=10.0))
        assert result.snapshots["b1"][0].t > 10.0
        assert result.checkpoint_equal is True
        assert result.divergence_t is None
        assert result.passed


class TestSoakErrorTyping:
    def test_lookalike_class_name_counts_as_untyped(self, monkeypatch):
        # Typed means "is a ReproError", not "shares a ReproError's name".
        from repro.fleet import TrackingFleet

        class EstimationError(RuntimeError):
            pass

        def boom(self, t):
            raise EstimationError("not a repro error")

        monkeypatch.setattr(TrackingFleet, "tick", boom)
        result = run_soak(smoke_config(duration_s=5.0, checkpoint_t=None))
        assert len(result.errors) == 5
        assert result.errors[0] == "EstimationError: not a repro error"
        assert result.untyped_errors == 5
        assert not result.passed
