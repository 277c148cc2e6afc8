"""Tests for the supervised streaming tracking service (repro.service)."""

import json
import math

import numpy as np
import pytest

from repro import perf
from repro.core.tracking import BeaconTracker
from repro.errors import (
    ConfigurationError,
    DataQualityError,
    EstimationError,
)
from repro.fleet import TrackingFleet
from repro.service import (
    BackoffConfig,
    BoundedBuffer,
    BreakerConfig,
    CircuitBreaker,
    ExponentialBackoff,
    HealthConfig,
    HealthMachine,
    ServiceConfig,
    SessionConfig,
    SessionState,
    TrackingService,
    TrackingSession,
)
from repro.service.session import snapshot_key
from repro.types import (
    ImuSample,
    ImuTrace,
    LocationEstimate,
    RssiSample,
    RssiTrace,
    Vec2,
)
from tests.stubs import ScriptedPipeline, one_shard, step_session


def fix(x=1.0, y=2.0, std=0.5, confidence=0.9):
    return LocationEstimate(
        position=Vec2(x, y), confidence=confidence, position_std=std
    )


# -- BeaconTracker hardening (regression) ------------------------------------


class TestTrackerInputHardening:
    def test_nan_timestamp_rejected_typed(self):
        tr = BeaconTracker()
        tr.update(0.0, fix())
        with pytest.raises(DataQualityError, match="timestamp"):
            tr.update(float("nan"), fix())
        # The poisoned call must not have advanced the filter clock.
        assert tr.predict(1.0).time == 1.0

    def test_inf_timestamp_rejected(self):
        tr = BeaconTracker()
        with pytest.raises(DataQualityError):
            tr.update(float("inf"), fix())
        assert not tr.initialized

    def test_nonfinite_fix_position_rejected(self):
        tr = BeaconTracker()
        tr.update(0.0, fix())
        before = tr.state()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DataQualityError, match="position"):
                tr.update(1.0, fix(x=bad))
        after = tr.state()
        assert after.position.x == before.position.x
        assert np.isfinite(after.position_std)

    def test_nan_predict_time_rejected(self):
        tr = BeaconTracker()
        tr.update(0.0, fix())
        with pytest.raises(DataQualityError):
            tr.predict(float("nan"))

    def test_integer_position_std_honoured(self):
        # An int (or numpy scalar) std must be used, not silently replaced
        # by default_fix_std.
        sharp = BeaconTracker(default_fix_std=50.0)
        sharp.update(0.0, fix(std=1))
        sharp.update(1.0, LocationEstimate(Vec2(3.0, 2.0), position_std=1))
        vague = BeaconTracker(default_fix_std=50.0)
        vague.update(0.0, fix(std=50.0))
        vague.update(1.0, LocationEstimate(Vec2(3.0, 2.0), position_std=50.0))
        # The sharp (std=1) track moves much closer to the new fix.
        assert sharp.state().position.x > vague.state().position.x

    def test_numpy_scalar_std_honoured(self):
        a = BeaconTracker()
        a.update(0.0, fix(std=np.float64(0.5)))
        b = BeaconTracker()
        b.update(0.0, fix(std=0.5))
        assert a.state().position_std == b.state().position_std

    def test_nonpositive_std_falls_back(self):
        tr = BeaconTracker(default_fix_std=2.0)
        tr.update(0.0, fix(std=-1.0))
        ref = BeaconTracker(default_fix_std=2.0)
        ref.update(0.0, fix(std=2.0))
        assert tr.state().position_std == ref.state().position_std

    def test_covariance_stays_symmetric_psd(self):
        # Joseph form: tiny-std fixes must not break symmetry/PSD.
        tr = BeaconTracker()
        tr.update(0.0, fix(std=1e-6))
        for k in range(1, 60):
            tr.update(float(k), fix(x=0.01 * k, std=1e-6))
        p = tr._p
        assert np.allclose(p, p.T)
        assert np.linalg.eigvalsh(p).min() >= -1e-12

    def test_out_of_order_fix_still_typed(self):
        tr = BeaconTracker()
        tr.update(5.0, fix())
        with pytest.raises(EstimationError):
            tr.update(4.0, fix())


class TestTrackerCheckpoint:
    def test_json_roundtrip_is_bit_identical(self):
        tr = BeaconTracker()
        tr.update(0.0, fix())
        tr.update(1.5, fix(x=1.4, y=2.2, std=0.7))
        cp = json.loads(json.dumps(tr.checkpoint()))
        restored = BeaconTracker.restore(cp)
        a, b = tr.predict(3.0), restored.predict(3.0)
        assert a == b

    def test_resume_matches_uninterrupted(self):
        fixes = [(float(k), fix(x=0.3 * k, y=2.0 - 0.1 * k, std=0.8))
                 for k in range(8)]
        full = BeaconTracker()
        for t, est in fixes:
            full.update(t, est)
        head = BeaconTracker()
        for t, est in fixes[:4]:
            head.update(t, est)
        resumed = BeaconTracker.restore(
            json.loads(json.dumps(head.checkpoint())))
        for t, est in fixes[4:]:
            resumed.update(t, est)
        assert full.state() == resumed.state()

    def test_uninitialized_roundtrip(self):
        tr = BeaconTracker.restore(BeaconTracker().checkpoint())
        assert not tr.initialized

    def test_bad_checkpoints_rejected(self):
        with pytest.raises(DataQualityError):
            BeaconTracker.restore({"format": 99})
        cp = BeaconTracker().checkpoint()
        cp["x"] = [1.0, 2.0]  # wrong shape
        cp["p"] = [[1.0]]
        cp["t"] = 0.0
        with pytest.raises(DataQualityError):
            BeaconTracker.restore(cp)
        cp2 = BeaconTracker().checkpoint()
        cp2["x"] = [float("nan")] * 4
        cp2["p"] = np.eye(4).tolist()
        cp2["t"] = 0.0
        with pytest.raises(DataQualityError, match="non-finite"):
            BeaconTracker.restore(cp2)


# -- health machine ----------------------------------------------------------


class TestHealthMachine:
    def test_lifecycle_decay_path(self):
        hm = HealthMachine(HealthConfig(stale_after_s=5.0, lost_after_s=20.0))
        assert hm.state == SessionState.ACQUIRING
        hm.on_tick(100.0)  # no fix yet: acquiring never decays
        assert hm.state == SessionState.ACQUIRING
        hm.on_fix(100.0, good=True)
        assert hm.state == SessionState.HEALTHY
        hm.on_tick(104.0)
        assert hm.state == SessionState.HEALTHY
        hm.on_tick(106.0)
        assert hm.state == SessionState.STALE
        hm.on_tick(121.0)
        assert hm.state == SessionState.LOST
        # One good fix re-acquires even from LOST.
        hm.on_fix(130.0, good=True)
        assert hm.state == SessionState.HEALTHY

    def test_degraded_fixes_and_recovery_streak(self):
        hm = HealthMachine(HealthConfig(recover_after=2))
        hm.on_fix(0.0, good=True)
        hm.on_fix(1.0, good=False)
        assert hm.state == SessionState.DEGRADED
        hm.on_fix(2.0, good=True)
        assert hm.state == SessionState.DEGRADED  # streak of 1 < 2
        hm.on_fix(3.0, good=True)
        assert hm.state == SessionState.HEALTHY

    def test_degraded_fix_does_not_acquire(self):
        hm = HealthMachine()
        hm.on_fix(0.0, good=False)
        assert hm.state == SessionState.ACQUIRING
        assert hm.fix_age(10.0) == float("inf")

    def test_dwell_accounting(self):
        hm = HealthMachine(HealthConfig(stale_after_s=4.0))
        hm.on_fix(2.0, good=True)
        hm.on_tick(10.0)  # STALE at 10
        d = hm.dwell(12.0)
        assert d[SessionState.ACQUIRING] == pytest.approx(2.0)
        assert d[SessionState.HEALTHY] == pytest.approx(8.0)
        assert d[SessionState.STALE] == pytest.approx(2.0)

    def test_checkpoint_roundtrip(self):
        hm = HealthMachine(HealthConfig(stale_after_s=3.0))
        hm.on_fix(1.0, good=True)
        hm.on_fix(2.0, good=False)
        hm.on_tick(9.0)
        cp = json.loads(json.dumps(hm.checkpoint()))
        restored = HealthMachine.restore(cp, hm.config)
        assert restored.state == hm.state
        assert restored.dwell() == hm.dwell()
        assert restored.transitions == hm.transitions
        # Both continue identically.
        hm.on_tick(120.0)
        restored.on_tick(120.0)
        assert restored.state == hm.state == SessionState.LOST

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            HealthConfig(stale_after_s=0.0)
        with pytest.raises(ConfigurationError):
            HealthConfig(stale_after_s=10.0, lost_after_s=5.0)
        with pytest.raises(ConfigurationError):
            HealthConfig(recover_after=0)
        with pytest.raises(DataQualityError):
            HealthMachine.restore({"format": 1, "state": "BOGUS"})


# -- breaker and backoff -----------------------------------------------------


class TestCircuitBreaker:
    def cfg(self):
        return BreakerConfig(failure_threshold=3, cooldown_s=10.0,
                             cooldown_factor=2.0, max_cooldown_s=30.0)

    def test_trips_after_threshold_and_sheds(self):
        br = CircuitBreaker(self.cfg(), key="b")
        for t in (0.0, 1.0):
            assert br.allow(t)
            br.record_failure(t)
        assert br.state == CircuitBreaker.CLOSED
        br.record_failure(2.0)
        assert br.state == CircuitBreaker.OPEN and br.trips == 1
        assert not br.allow(5.0)  # shedding during cooldown

    def test_half_open_probe_success_closes(self):
        br = CircuitBreaker(self.cfg(), key="b")
        for t in (0.0, 1.0, 2.0):
            br.record_failure(t)
        assert br.allow(12.0)  # cooldown elapsed: single probe admitted
        assert br.state == CircuitBreaker.HALF_OPEN
        br.record_success(12.0)
        assert br.state == CircuitBreaker.CLOSED
        assert br.consecutive_failures == 0

    def test_failed_probe_escalates_cooldown(self):
        br = CircuitBreaker(self.cfg(), key="b")
        for t in (0.0, 1.0, 2.0):
            br.record_failure(t)
        assert br.allow(12.0)
        br.record_failure(12.0)  # probe fails: cooldown 10 -> 20
        assert br.state == CircuitBreaker.OPEN
        assert not br.allow(22.0)  # 10 s later: still open
        assert br.allow(32.0)  # 20 s later: next probe
        br.record_failure(32.0)  # 20 -> 30 (capped at max_cooldown_s)
        br.record_failure(100.0)
        assert br._cooldown_s == 30.0

    def test_success_resets_escalation(self):
        br = CircuitBreaker(self.cfg(), key="b")
        for t in (0.0, 1.0, 2.0):
            br.record_failure(t)
        br.allow(12.0)
        br.record_failure(12.0)
        br.allow(32.0)
        br.record_success(32.0)
        assert br._cooldown_s == self.cfg().cooldown_s

    def test_checkpoint_roundtrip_mid_open(self):
        br = CircuitBreaker(self.cfg(), key="b")
        for t in (0.0, 1.0, 2.0):
            br.record_failure(t)
        cp = json.loads(json.dumps(br.checkpoint()))
        restored = CircuitBreaker.restore(cp, br.config)
        assert restored.state == CircuitBreaker.OPEN
        assert restored.allow(5.0) == br.allow(5.0) is False
        assert restored.allow(12.0) == br.allow(12.0) is True

    def test_bad_checkpoint_rejected(self):
        with pytest.raises(DataQualityError):
            CircuitBreaker.restore({"format": 1, "state": "exploded"})

    def test_open_without_opened_t_rejected(self):
        # Regression: state "open" with opened_t null used to restore fine
        # and crash the next allow(t) with `t - None`.
        br = CircuitBreaker(self.cfg(), key="b")
        for t in (0.0, 1.0, 2.0):
            br.record_failure(t)
        cp = br.checkpoint()
        cp["opened_t"] = None
        with pytest.raises(DataQualityError):
            CircuitBreaker.restore(cp, br.config)

    def test_nonfinite_and_negative_fields_rejected(self):
        br = CircuitBreaker(self.cfg(), key="b")
        for t in (0.0, 1.0, 2.0):
            br.record_failure(t)
        good = br.checkpoint()
        for corrupt in (
            {"opened_t": float("nan")},
            {"cooldown_s": float("inf")},
            {"cooldown_s": 0.0},
            {"cooldown_s": -1.0},
            {"consecutive_failures": -1},
            {"trips": -3},
        ):
            cp = dict(good, **corrupt)
            with pytest.raises(DataQualityError):
                CircuitBreaker.restore(cp, br.config)
        # The uncorrupted checkpoint still restores.
        assert CircuitBreaker.restore(good, br.config).state == br.state


class TestExponentialBackoff:
    def test_delays_grow_and_cap(self):
        bo = ExponentialBackoff(
            BackoffConfig(base_s=1.0, factor=2.0, max_s=8.0, jitter_frac=0.0),
            key="b0",
        )
        assert [bo.delay_for(k) for k in (1, 2, 3, 4, 5)] == [
            1.0, 2.0, 4.0, 8.0, 8.0]

    def test_jitter_is_deterministic_per_key(self):
        cfg = BackoffConfig(jitter_frac=0.5)
        a = ExponentialBackoff(cfg, key="beacon-7")
        b = ExponentialBackoff(cfg, key="beacon-7")
        c = ExponentialBackoff(cfg, key="beacon-8")
        delays_a = [a.delay_for(k) for k in range(1, 6)]
        assert delays_a == [b.delay_for(k) for k in range(1, 6)]
        assert delays_a != [c.delay_for(k) for k in range(1, 6)]
        base = BackoffConfig(jitter_frac=0.0)
        for k, d in enumerate(delays_a, start=1):
            raw = ExponentialBackoff(base, key="beacon-7").delay_for(k)
            assert raw * 0.5 <= d <= raw * 1.5

    def test_ready_schedule_and_reset(self):
        bo = ExponentialBackoff(
            BackoffConfig(base_s=2.0, jitter_frac=0.0), key="b")
        assert bo.ready(0.0)
        bo.on_failure(0.0)
        assert not bo.ready(1.0)
        assert bo.ready(2.0)
        bo.reset()
        assert bo.attempt == 0 and bo.ready(0.0)

    def test_no_overflow_past_two_thousand_attempts(self):
        # Regression: factor ** (attempt - 1) raised OverflowError past
        # attempt ~1025 before the min(..., max_s) cap could apply.
        bo = ExponentialBackoff(BackoffConfig(), key="stuck")
        last = 0.0
        for k in range(2500):
            last = bo.on_failure(float(k))
            assert math.isfinite(last) and last > 0.0
        cfg = bo.config
        assert last <= cfg.max_s * (1.0 + cfg.jitter_frac)
        assert bo.attempt <= 10_000
        # delay_for stays finite at any attempt the clamp admits.
        assert math.isfinite(bo.delay_for(10_000))
        assert math.isfinite(bo.delay_for(10 ** 9))

    def test_saturation_keeps_sub_cap_delays_bit_identical(self):
        # The log-space short-circuit must not alter any delay the old
        # expression could compute without overflowing.
        cfg = BackoffConfig(base_s=0.5, factor=1.7, max_s=600.0,
                            jitter_frac=0.3)
        bo = ExponentialBackoff(cfg, key="beacon-42")
        for k in range(1, 60):
            raw = min(cfg.base_s * cfg.factor ** (k - 1), cfg.max_s)
            jitter = bo.delay_for(k) / raw
            assert 1.0 - cfg.jitter_frac <= jitter <= 1.0 + cfg.jitter_frac

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffConfig(base_s=0.0)
        with pytest.raises(ConfigurationError):
            BackoffConfig(factor=0.5)
        with pytest.raises(ConfigurationError):
            BackoffConfig(max_s=0.5)
        with pytest.raises(ConfigurationError):
            BackoffConfig(jitter_frac=1.0)


# -- bounded buffers ---------------------------------------------------------


class TestBoundedBuffer:
    def test_drop_oldest_and_shed_count(self):
        buf = BoundedBuffer(3, name="t")
        buf.extend([1, 2, 3])
        assert buf.shed == 0 and buf.full
        buf.append(4)
        assert buf.items() == [2, 3, 4]
        assert buf.shed == 1

    def test_shed_counts_into_perf(self):
        perf.reset()
        buf = BoundedBuffer(2, name="perfcase")
        buf.extend([1, 2, 3, 4])
        assert perf.snapshot()["counters"]["service.shed.perfcase"] == 2

    def test_first_shed_logged_at_warning(self, caplog):
        buf = BoundedBuffer(1, name="loud")
        with caplog.at_level("DEBUG", logger="repro.service"):
            buf.extend([1, 2, 3])
        levels = [r.levelname for r in caplog.records]
        assert levels == ["WARNING", "DEBUG"]

    def test_drop_while_is_not_shed(self):
        buf = BoundedBuffer(10, name="age")
        buf.extend([1, 2, 3, 9])
        assert buf.drop_while(lambda v: v < 5) == 3
        assert buf.items() == [9]
        assert buf.shed == 0  # aging out is expected attrition

    def test_invalid_maxlen(self):
        with pytest.raises(ConfigurationError):
            BoundedBuffer(0)


# -- tracking session (stub pipeline for failure injection) ------------------


def scripted_session(script, beacon_id="b", **config_kwargs):
    cfg = SessionConfig(
        solve_period_s=1.0,
        breaker=BreakerConfig(failure_threshold=3, cooldown_s=5.0,
                              cooldown_factor=2.0, max_cooldown_s=20.0),
        **config_kwargs,
    )
    return TrackingSession(
        beacon_id, config=cfg,
        pipeline_factory=lambda: ScriptedPipeline(script),
    )


def feed(session, t):
    """One tick: three fresh scans plus enough IMU, then step."""
    session.ingest([
        RssiSample(t - 0.3, -60.0, session.beacon_id, 37),
        RssiSample(t - 0.2, -61.0, session.beacon_id, 38),
        RssiSample(t - 0.1, -60.5, session.beacon_id, 39),
    ])
    imu = ImuTrace([ImuSample(t - 0.4 + 0.1 * i, 0.5, 0.0, 0.0)
                    for i in range(4)])
    return step_session(session, t, imu)


class TestTrackingSession:
    def test_happy_path_acquires_and_tracks(self):
        s = scripted_session(["ok"])
        snap = feed(s, 1.0)
        assert snap.state == SessionState.HEALTHY
        assert snap.track is not None
        assert s.counters["fixes_accepted"] == 1

    def test_solve_period_respected(self):
        s = scripted_session(["ok"])
        feed(s, 1.0)
        feed(s, 1.5)  # within solve_period_s: no new attempt
        assert s.counters["solves_attempted"] == 1
        feed(s, 2.0)
        assert s.counters["solves_attempted"] == 2

    def test_nonfinite_ingest_rejected_counted(self):
        s = scripted_session(["ok"])
        taken = s.ingest([RssiSample(float("nan"), -60.0, "b", 37),
                          RssiSample(1.0, -60.0, "b", 37)])
        assert taken == 1
        assert s.counters["ingest_rejected_nonfinite_t"] == 1

    def test_nonfinite_step_time_is_caller_bug(self):
        s = scripted_session(["ok"])
        with pytest.raises(ConfigurationError):
            step_session(s, float("nan"), ImuTrace([]))

    def test_breaker_storm_sheds_solve_work(self):
        # Three degenerate solves trip the breaker; while OPEN the session
        # sheds attempts instead of burning regressions.
        s = scripted_session(["degenerate"])
        for k in range(1, 4):
            feed(s, float(k))
        assert s.breaker.state == CircuitBreaker.OPEN
        attempts_at_trip = s.counters["solves_attempted"]
        for k in range(4, 8):  # cooldown_s=5: all shed
            feed(s, float(k))
        assert s.counters["solves_attempted"] == attempts_at_trip
        assert s.counters["solves_shed"] == 4
        assert s.pipeline.calls == attempts_at_trip  # no hidden work

    def test_half_open_probe_recovers(self):
        s = scripted_session(["degenerate", "degenerate", "degenerate", "ok"])
        for k in range(1, 4):
            feed(s, float(k))
        assert s.breaker.state == CircuitBreaker.OPEN
        snap = feed(s, 9.0)  # past cooldown: probe runs and succeeds
        assert s.breaker.state == CircuitBreaker.CLOSED
        assert snap.state == SessionState.HEALTHY

    def test_breaker_shedding_visible_in_perf(self):
        perf.reset()
        s = scripted_session(["degenerate"])
        for k in range(1, 8):
            feed(s, float(k))
        counters = perf.snapshot()["counters"]
        assert counters["service.breaker_trips"] == 1
        assert counters["service.solves_shed"] == 4
        # After the trip, attempted solves stop accruing.
        assert counters["service.solves_attempted"] == 3

    def test_non_degenerate_failures_trip_the_breaker(self):
        # A failed solve that is not degenerate geometry books the same
        # breaker failure: no retry delay, and three in a row open it.
        s = scripted_session(["failed"])
        feed(s, 1.0)
        assert s.counters["solves_transient_failures"] == 1
        assert s.breaker.state == CircuitBreaker.CLOSED
        feed(s, 2.0)  # the next due tick solves again
        feed(s, 3.0)
        assert s.counters["solves_transient_failures"] == 3
        assert s.counters["solves_degenerate"] == 0
        assert s.breaker.state == CircuitBreaker.OPEN
        feed(s, 4.0)  # cooldown_s=5: shed
        assert s.counters["solves_shed"] == 1
        assert s.counters["solves_attempted"] == 3 == s.pipeline.calls

    def test_data_shortage_is_skipped_not_failed(self, recorded):
        # A window the pipeline finds short of data is a skip with the
        # rule's reason: no failure, no shed, no solve-period wait.
        s = scripted_session(["nodata", "nodata", "ok"])
        feed(s, 1.0)
        feed(s, 1.5)
        snap = feed(s, 1.7)
        skips = recorded.named("service.solves_skipped_nodata")
        assert [e.fields["reason"] for e in skips] == ["scripted: no data"] * 2
        assert s.counters["solves_skipped_nodata"] == 2
        assert s.counters["solves_attempted"] == 1
        assert s.counters["fixes_accepted"] == 1
        assert s.counters.get("solves_shed", 0) == 0
        assert s.counters["solves_transient_failures"] == 0
        assert snap.breaker_state == CircuitBreaker.CLOSED
        assert s.breaker.consecutive_failures == 0

    def test_short_windows_are_skipped_before_the_script(self):
        # Too few RSS rows or IMU samples: the stub's sufficiency rule
        # refuses before a script entry is taken, as the real one does.
        s = scripted_session(["ok"])
        imu = ImuTrace([ImuSample(0.5 + 0.1 * i, 0.5, 0.0, 0.0)
                        for i in range(4)])
        s.ingest([RssiSample(0.8, -60.0, "b", 37)])
        step_session(s, 1.0, imu)  # one RSS row
        s.ingest([RssiSample(1.2 + 0.1 * i, -60.0, "b", 37)
                  for i in range(3)])
        step_session(s, 2.0, ImuTrace(imu.samples[:1]))  # one IMU sample
        assert s.pipeline.calls == 0
        assert s.counters["solves_skipped_nodata"] == 2
        feed(s, 3.0)
        assert s.pipeline.calls == 1 == s.counters["fixes_accepted"]

    def test_goes_stale_then_lost_and_drops_track(self):
        s = scripted_session(
            ["ok", "failed"],
            health=HealthConfig(stale_after_s=3.0, lost_after_s=10.0),
        )
        feed(s, 1.0)
        assert s.tracker.initialized
        # No IMU: every window is short of data; fix age climbs.
        snap = step_session(s, 5.0, ImuTrace([]))
        assert snap.state == SessionState.STALE
        assert snap.track is not None  # still coasting
        snap = step_session(s, 20.0, ImuTrace([]))
        assert snap.state == SessionState.LOST
        assert snap.track is None
        assert s.counters["tracks_dropped"] == 1
        assert not s.tracker.initialized

    def test_degraded_confidence_marks_fix_degraded(self):
        s = scripted_session(["ok"], min_confidence=0.95)
        snap = feed(s, 1.0)
        assert s.counters["fixes_degraded"] == 1
        assert snap.state == SessionState.ACQUIRING  # degraded can't acquire

    def test_window_ages_out_old_scans(self):
        s = scripted_session(["ok"], window_s=10.0)
        s.ingest([RssiSample(0.5, -60.0, "b", 37)])
        feed(s, 12.0)
        assert all(x.timestamp >= 2.0 for x in s.rss)


class TestSessionCheckpoint:
    def test_roundtrip_resumes_bit_identical(self):
        script = ["ok", "failed", "ok", "degenerate", "ok"]
        full = scripted_session(script)
        part = scripted_session(script)
        for k in range(1, 5):
            feed(full, float(k))
            feed(part, float(k))
        cp = json.loads(json.dumps(part.checkpoint()))
        resumed = TrackingSession.restore(
            cp, pipeline_factory=lambda: ScriptedPipeline(script[4:]))
        later = []
        for k in range(5, 9):
            a = feed(full, float(k))
            b = feed(resumed, float(k))
            later.append((a, b))
        for a, b in later:
            assert (a.t, a.state, a.breaker_state, a.track) == (
                b.t, b.state, b.breaker_state, b.track)
        assert resumed.counters == full.counters

    def test_bad_format_rejected(self):
        with pytest.raises(DataQualityError):
            TrackingSession.restore({"format": 0})


# -- the multi-beacon service ------------------------------------------------


def service_with_stub(script=("ok",), **kwargs):
    cfg = ServiceConfig(
        session=SessionConfig(solve_period_s=1.0),
        **kwargs,
    )
    return one_shard(cfg, lambda: ScriptedPipeline(list(script)))


def feed_service(svc, t, beacon_ids=("a", "b")):
    svc.ingest_scans([
        RssiSample(t - off, -60.0, bid, 37)
        for bid in beacon_ids for off in (0.3, 0.2, 0.1)
    ])
    svc.ingest_imu([ImuSample(t - 0.4 + 0.1 * i, 0.5, 0.0, 0.0)
                    for i in range(4)])
    return svc.tick(t)


class TestTrackingService:
    def test_sessions_created_per_beacon(self):
        svc = service_with_stub()
        snaps = feed_service(svc, 1.0)
        assert sorted(snaps) == ["a", "b"]
        assert all(s.state == SessionState.HEALTHY for s in snaps.values())

    def test_session_cap_sheds_new_beacons(self):
        svc = service_with_stub(max_sessions=1)
        feed_service(svc, 1.0, beacon_ids=("a", "b", "c"))
        stats = svc.stats()
        assert stats["sessions"] == 1
        assert stats["sessions_shed"] == 2  # beacons b and c refused
        assert stats["shed_samples"] == 6  # 3 scans each for b and c
        feed_service(svc, 2.0, beacon_ids=("a", "b", "c"))
        stats = svc.stats()
        assert stats["sessions_shed"] == 2  # still the same two beacons
        assert stats["shed_samples"] == 12
        assert svc.shard_of("a") == 0

    def test_nonfinite_imu_rejected(self):
        svc = service_with_stub()
        taken = svc.ingest_imu([ImuSample(float("nan"), 0.0, 0.0, 0.0),
                                ImuSample(1.0, 0.0, 0.0, 0.0)])
        assert taken == 1

    def test_imu_ring_ages_by_the_session_window(self):
        svc = one_shard(ServiceConfig(session=SessionConfig(window_s=2.0)))
        svc.ingest_imu([ImuSample(0.5 * k, 0.0, 0.0, 0.0) for k in range(9)])
        tick = svc.imu.tick(4.0)
        assert [s.timestamp for s in svc.imu.buffer] == [2.0, 2.5, 3.0,
                                                          3.5, 4.0]
        assert len(tick.window(2.0)) == 4  # [t - window, t)
        assert svc.stats()["imu"]["len"] == 5

    def test_nonfinite_step_time_raises(self):
        svc = service_with_stub()
        with pytest.raises(ConfigurationError):
            svc.tick(float("inf"))

    def test_stats_aggregates_sessions(self):
        svc = service_with_stub()
        feed_service(svc, 1.0)
        feed_service(svc, 2.0)
        stats = svc.stats()
        assert stats["sessions"] == 2
        assert stats["counters"]["fixes_accepted"] == 4
        assert set(stats["per_shard"][0]["states"]) == {"a", "b"}

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(imu_buffer=1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_sessions=0)
        with pytest.raises(TypeError):  # the ring ages by the session window
            ServiceConfig(imu_window_s=75.0)

    def test_checkpoint_roundtrip_bit_identical(self):
        script = ["ok", "failed", "ok"]
        full = service_with_stub(script)
        part = service_with_stub(script)
        for k in range(1, 4):
            feed_service(full, float(k))
            feed_service(part, float(k))
        cp = json.loads(json.dumps(part.checkpoint()))
        resumed = TrackingFleet.restore(
            cp, pipeline_factory=lambda: ScriptedPipeline(script[2:]))
        assert resumed.restores == 1
        for k in range(4, 8):
            a = feed_service(full, float(k))
            b = feed_service(resumed, float(k))
            assert sorted(a) == sorted(b)
            for bid in a:
                assert (a[bid].t, a[bid].state, a[bid].track,
                        a[bid].fix_age_s) == (
                    b[bid].t, b[bid].state, b[bid].track, b[bid].fix_age_s)

    def test_bad_checkpoint_rejected(self):
        with pytest.raises(DataQualityError):
            TrackingService.restore({"format": -1})

    def test_checkpoint_carrying_its_own_ring_refused(self):
        # The observer-IMU ring lives in the fleet's checkpoint; a service
        # checkpoint that carries one (the former standalone form) is
        # refused typed rather than restored with the ring dropped.
        fleet = service_with_stub()
        feed_service(fleet, 1.0)
        cp = json.loads(json.dumps(fleet.checkpoint()))
        service_cp = cp["workers"][0]["service"]
        assert "imu" not in service_cp
        TrackingService.restore(service_cp)
        with pytest.raises(DataQualityError, match="IMU ring"):
            TrackingService.restore(dict(service_cp, imu=cp["imu"],
                                         imu_shed=cp["imu_shed"]))


# -- end-to-end with the real pipeline ---------------------------------------


class TestServiceRealPipeline:
    def test_real_stream_acquires_and_checkpoints(self):
        # A genuine simulated walk, streamed in 1 s ticks through the
        # default repair-mode pipeline.
        from repro.sim.simulator import BeaconSpec, Simulator
        from repro.world.scenarios import scenario
        from repro.world.trajectory import l_shape

        sc = scenario(1)
        rng = np.random.default_rng(5)
        sim = Simulator(sc.floorplan, rng)
        walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                       leg1=2.8, leg2=2.2)
        rec = sim.simulate(walk, [
            BeaconSpec("b", position=sc.beacon_position)])
        scans = rec.rssi_traces["b"].samples
        imu = rec.observer_imu.trace.samples
        t_end = math.ceil(max(s.timestamp for s in imu))

        svc = one_shard(ServiceConfig(
            session=SessionConfig(solve_period_s=1.0)))
        snaps = []
        for k in range(1, t_end + 1):
            t = float(k)
            svc.ingest_scans(
                [s for s in scans if t - 1.0 <= s.timestamp < t])
            svc.ingest_imu(
                [s for s in imu if t - 1.0 <= s.timestamp < t])
            snaps.append(svc.tick(t)["b"])
        assert snaps[-1].state == SessionState.HEALTHY
        assert snaps[-1].track is not None
        # And the whole thing survives a JSON kill-and-resume.
        resumed = TrackingFleet.restore(
            json.loads(json.dumps(svc.checkpoint())))
        a = svc.tick(float(t_end + 1))["b"]
        b = resumed.tick(float(t_end + 1))["b"]
        assert (a.t, a.state, a.track) == (b.t, b.state, b.track)


# -- one sufficiency rule ------------------------------------------------------


class TestSufficiencyRule:
    """A window short of data is the pipeline's call and a skip, not a
    solve failure; the breaker is the session's one hold-back."""

    def test_standstill_start_is_skipped_until_the_walk_moves(self,
                                                               recorded):
        from repro.sim.simulator import BeaconSpec, Simulator
        from repro.world.scenarios import scenario
        from repro.world.trajectory import Trajectory, l_shape

        still_s = 5.0
        sc = scenario(1)
        walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                       leg1=2.8, leg2=2.2, t0=still_s)
        walk = Trajectory([sc.observer_start] + walk.waypoints,
                          [0.0] + walk.times)
        rec = Simulator(sc.floorplan, np.random.default_rng(5)).simulate(
            walk, [BeaconSpec("b", position=sc.beacon_position)])
        scans = rec.rssi_traces["b"].samples
        imu = rec.observer_imu.trace.samples
        svc = one_shard(ServiceConfig(
            session=SessionConfig(solve_period_s=1.0)))
        snaps = []
        for k in range(1, math.ceil(walk.times[-1]) + 1):
            t = float(k)
            svc.ingest_scans(
                [s for s in scans if t - 1.0 <= s.timestamp < t])
            svc.ingest_imu(
                [s for s in imu if t - 1.0 <= s.timestamp < t])
            snaps.append(svc.tick(t)["b"])
        session = svc.workers[0].service.sessions["b"]
        skips = [e.fields
                 for e in recorded.named("service.solves_skipped_nodata")]
        assert [f["t"] for f in skips] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all("barely moved" in f["reason"] for f in skips)
        assert session.counters["solves_transient_failures"] == 0
        assert session.counters["solves_degenerate"] == 0
        assert session.counters["solves_shed"] == 0
        assert all(s.breaker_state == CircuitBreaker.CLOSED for s in snaps)
        fixed = [s.t for s in snaps if s.estimate is not None]
        assert fixed[0] == still_s + 1.0  # the first due tick after moving

    def test_legacy_checkpoint_drops_the_pending_backoff(self):
        # A checkpoint written while sessions had a retry backoff, mid
        # delay: the delay is dropped and the session solves at its next
        # due tick, exactly as a session that never had one.
        script = ["ok", "failed", "failed", "ok"]
        full = scripted_session(script)
        part = scripted_session(script)
        for k in range(1, 4):
            feed(full, float(k))
            feed(part, float(k))
        cp = json.loads(json.dumps(part.checkpoint()))
        cp["config"].update(
            min_imu_samples=16,
            backoff={"base_s": 1.0, "factor": 2.0, "max_s": 30.0,
                     "jitter_frac": 0.1})
        cp["backoff"] = {"format": 1, "key": "b", "attempt": 3,
                         "next_ready_t": 3.0 + 4.0}
        resumed = TrackingSession.restore(
            cp, pipeline_factory=lambda: ScriptedPipeline(script[3:]))
        assert resumed.config == full.config
        assert "backoff" not in resumed.checkpoint()
        a, b = feed(full, 4.0), feed(resumed, 4.0)
        assert b.estimate is not None and b.t == 4.0
        assert snapshot_key(a) == snapshot_key(b)
        assert resumed.counters == full.counters

    def test_config_from_dict_drops_the_retired_keys(self):
        d = SessionConfig(window_s=30.0).to_dict()
        assert "backoff" not in d and "min_imu_samples" not in d
        legacy = dict(d, min_imu_samples=2, backoff={"base_s": 1.0})
        assert SessionConfig.from_dict(legacy) == SessionConfig(window_s=30.0)


# -- one observer track per tick ---------------------------------------------


def _three_beacon_walk():
    from repro.sim.simulator import BeaconSpec, Simulator
    from repro.world.scenarios import scenario
    from repro.world.trajectory import l_shape

    sc = scenario(1)
    sim = Simulator(sc.floorplan, np.random.default_rng(5))
    walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                   leg1=2.8, leg2=2.2)
    beacons = [
        BeaconSpec(bid, position=sc.beacon_position + Vec2(dx, dy))
        for bid, dx, dy in (("a", 0.0, 0.0), ("b", 0.8, -0.4),
                            ("c", -0.5, 0.9))
    ]
    rec = sim.simulate(walk, beacons)
    scans = [s for tr in rec.rssi_traces.values() for s in tr.samples]
    return scans, rec.observer_imu.trace.samples


@pytest.fixture
def track_calls(monkeypatch):
    """Every MotionTracker.track call: (tracker, window length, track)."""
    import copy

    from repro.motion.deadreckoning import MotionTracker

    calls = []
    original = MotionTracker.track

    def counted(self, trace):
        track = original(self, trace)
        calls.append((self, len(trace), track, copy.deepcopy(track)))
        return track

    monkeypatch.setattr(MotionTracker, "track", counted)
    return calls


def _run_walk(svc, per_tick=None, calls=None):
    """Stream the three-beacon walk in 1 s ticks; return the snapshots."""
    scans, imu = _three_beacon_walk()
    t_end = math.ceil(max(s.timestamp for s in imu))
    snaps = []
    for k in range(1, t_end + 1):
        t = float(k)
        svc.ingest_scans([s for s in scans if t - 1.0 <= s.timestamp < t])
        svc.ingest_imu([s for s in imu if t - 1.0 <= s.timestamp < t])
        before = svc.stats()["counters"].get("fixes_accepted", 0)
        n_calls = len(calls) if calls is not None else 0
        snaps.append(svc.tick(t))
        if per_tick is not None:
            per_tick.append((
                svc.stats()["counters"].get("fixes_accepted", 0) - before,
                len(calls) - n_calls,
            ))
    return snaps


class TestOneObserverTrackPerTick:
    """Sessions sharing an IMU window and tracker config share one track."""

    def test_one_track_call_per_tick(self, track_calls):
        svc = one_shard(ServiceConfig(
            session=SessionConfig(solve_period_s=1.0)))
        per_tick = []
        _run_walk(svc, per_tick, track_calls)
        assert max(n for _, n in per_tick) == 1
        solved = [n for fixes, n in per_tick if fixes]
        assert solved and all(n == 1 for n in solved)
        # Sharing actually happened: ticks where several sessions fixed.
        assert max(fixes for fixes, _ in per_tick) == 3
        # No consumer mutated a shared track.
        for _tracker, _n, track, pristine in track_calls:
            assert track == pristine

    def test_different_tracker_config_never_shares(self, track_calls):
        from repro.core.pipeline import LocBLE
        from repro.motion.deadreckoning import MotionTracker

        made = []

        def factory():
            # Sessions are created in beacon-id order: a, b, c.
            right_angle = len(made) == 1
            made.append(right_angle)
            return LocBLE(sanitize="repair", motion_tracker=MotionTracker(
                assume_right_angle=right_angle))

        svc = one_shard(ServiceConfig(
            session=SessionConfig(solve_period_s=1.0)), factory)
        per_tick = []
        _run_walk(svc, per_tick, track_calls)
        assert made == [False, True, False]
        assert max(n for _, n in per_tick) == 2
        full = [n for fixes, n in per_tick if fixes == 3]
        assert full and all(n == 2 for n in full)
        assert {c[0].assume_right_angle for c in track_calls} == {False, True}

    def test_different_window_never_shares(self, track_calls):
        from repro.motion.deadreckoning import TrackMemo
        from repro.service.session import ImuTick

        scans, imu = _three_beacon_walk()
        t = float(math.ceil(max(s.timestamp for s in imu)))
        tick = ImuTick(ImuTrace(imu), t)
        sessions = [
            TrackingSession(bid, SessionConfig(window_s=w))
            for bid, w in (("a", 60.0), ("b", 60.0), ("c", 3.0))
        ]
        for s in sessions:
            s.ingest([x for x in scans if x.beacon_id == s.beacon_id])
            assert s.begin_step(t, tick) is not None
        assert tick.window(60.0) is tick.window(60.0)
        assert len(tick.window(3.0)) < len(tick.window(60.0))
        assert sorted(n for _, n, _, _ in track_calls) == [
            len(tick.window(3.0)), len(tick.window(60.0))]
        # The memo also refuses an equal-content window that is not the
        # same object: callers that slice for themselves never share.
        memo = TrackMemo()
        tracker = sessions[0].pipeline.motion_tracker
        memo.track(tracker, ImuTrace(imu))
        memo.track(tracker, ImuTrace(imu))
        assert len(track_calls) == 4


# -- the batched solve is the sequential estimate ------------------------------


class TestBatchedSolveMatchesEstimate:
    def test_cold_and_warm(self):
        """``prepare_estimate`` + one ``fit_batch`` + ``complete_estimate``
        is :meth:`LocBLE.estimate`, beacon by beacon, cold and warm."""
        from repro.core.estimator import fit_batch
        from repro.motion.deadreckoning import TrackMemo
        from repro.service.session import default_pipeline_factory

        scans, imu = _three_beacon_walk()
        t_end = float(math.ceil(max(s.timestamp for s in imu)))
        bids = ("a", "b", "c")

        def window(t):
            return ({b: RssiTrace([s for s in scans
                                   if s.beacon_id == b and s.timestamp < t])
                     for b in bids},
                    ImuTrace([s for s in imu if s.timestamp < t]))

        earlier, earlier_imu = window(t_end - 1.0)
        traces, imu_window = window(t_end)
        warm = {b: default_pipeline_factory().estimate(
                    earlier[b], earlier_imu).diagnostics.warm
                for b in bids}
        assert all(w is not None for w in warm.values())
        warm_started = []
        for warm_by in (dict.fromkeys(bids), warm):
            pipelines = {b: default_pipeline_factory() for b in bids}
            memo = TrackMemo()
            prepared = {b: pipelines[b].prepare_estimate(
                            traces[b], imu_window, tracks=memo)
                        for b in bids}
            fits = fit_batch([prepared[b].request(warm=warm_by[b])
                              for b in bids])
            for b, fit in zip(bids, fits):
                got = pipelines[b].complete_estimate(prepared[b], fit)
                ref = default_pipeline_factory().estimate(
                    traces[b], imu_window, warm=warm_by[b])
                assert got.position == ref.position
                assert (got.gamma, got.n) == (ref.gamma, ref.n)
                assert got.confidence == ref.confidence
                assert got.position_std == ref.position_std
                assert got.diagnostics.provenance == ref.diagnostics.provenance
                warm_started.append(got.diagnostics.provenance.warm_started)
        assert not any(warm_started[:3]) and any(warm_started[3:])
