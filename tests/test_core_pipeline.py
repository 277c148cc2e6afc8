"""Tests for the end-to-end LocBLE pipeline (Algorithm 1) and ANF."""

import math

import numpy as np
import pytest

from repro.core.anf import AdaptiveNoiseFilter
from repro.core.pipeline import LocBLE
from repro.errors import ConfigurationError, InsufficientDataError
from repro.sim.simulator import BeaconSpec, Simulator
from repro.types import ImuTrace, RssiTrace, Vec2
from repro.world.floorplan import Floorplan
from repro.world.scenarios import scenario
from repro.world.trajectory import l_shape, straight_walk


def _session(seed=0, idx=1, leg1=2.8, leg2=2.2):
    rng = np.random.default_rng(seed)
    sc = scenario(idx)
    sim = Simulator(sc.floorplan, rng)
    walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                   leg1=leg1, leg2=leg2)
    rec = sim.simulate(walk, [BeaconSpec("b", position=sc.beacon_position)])
    return rec


class TestANF:
    def test_reduces_noise_keeps_trend(self, rng):
        fs = 9.0
        t = np.arange(360) / fs
        true = -60 - 12 * np.log10(1 + t)
        raw = true + rng.normal(0, 3.0, len(t))
        out = AdaptiveNoiseFilter().apply(raw, fs)
        assert np.mean((out - true) ** 2) < 0.5 * np.mean((raw - true) ** 2)

    def test_short_input_passthrough(self):
        x = np.array([-70.0, -71.0, -69.0])
        assert np.array_equal(AdaptiveNoiseFilter().apply(x, 9.0), x)

    def test_low_sampling_rate_cutoff_capped(self, rng):
        # Below 2 Hz the 0.8 Hz cutoff would reach Nyquist (0.4 * fs caps
        # it); the filter must not blow up there.
        x = -70 + rng.normal(0, 2, 60)
        out = AdaptiveNoiseFilter().apply(x, 1.5)
        assert np.all(np.isfinite(out))

    def test_stage_ablation(self, rng):
        x = -70 + rng.normal(0, 3, 200)
        bf_only = AdaptiveNoiseFilter(use_akf=False).apply(x, 9.0)
        akf_only = AdaptiveNoiseFilter(use_butterworth=False).apply(x, 9.0)
        both = AdaptiveNoiseFilter().apply(x, 9.0)
        neither = AdaptiveNoiseFilter(use_butterworth=False,
                                      use_akf=False).apply(x, 9.0)
        assert np.array_equal(neither, x)
        for out in (bf_only, akf_only, both):
            assert np.std(out[50:]) < np.std(x[50:])

    def test_apply_trace_preserves_metadata(self, rng):
        ts = np.arange(30) / 9.0
        trace = RssiTrace.from_arrays(ts, rng.normal(-70, 2, 30), "bx",
                                      channels=[38] * 30)
        out = AdaptiveNoiseFilter().apply_trace(trace)
        assert out.beacon_id == "bx"
        assert [s.channel for s in out.samples] == [38] * 30
        assert np.array_equal(out.timestamps(), trace.timestamps())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveNoiseFilter().apply(np.zeros(20), 0.0)


class TestLocBLEStationary:
    def test_meeting_room_accuracy(self):
        """Env #1 (LOS): paper reports 0.8 ± 0.2 m; require < 2 m mean over
        seeds on the synthetic channel."""
        errs = []
        for seed in range(6):
            rec = _session(seed=seed)
            est = LocBLE().estimate(rec.rssi_traces["b"],
                                    rec.observer_imu.trace)
            errs.append(est.error_to(rec.true_position_in_frame("b")))
        assert np.mean(errs) < 2.0

    def test_estimate_fields_populated(self):
        rec = _session(seed=1)
        est = LocBLE().estimate(rec.rssi_traces["b"], rec.observer_imu.trace)
        assert 0.0 <= est.confidence <= 1.0
        assert math.isfinite(est.gamma) and math.isfinite(est.n)
        assert 1.0 <= est.n <= 5.0

    def test_straight_walk_reports_ambiguity(self):
        rng = np.random.default_rng(2)
        plan = Floorplan("t", 12, 8)
        sim = Simulator(plan, rng)
        walk = straight_walk(Vec2(1, 2), 0.0, 4.0)
        rec = sim.simulate(walk, [BeaconSpec("b", position=Vec2(6, 6))])
        est = LocBLE().estimate(rec.rssi_traces["b"], rec.observer_imu.trace)
        assert len(est.ambiguous) == 1
        mirror = est.ambiguous[0]
        assert mirror.y == pytest.approx(-est.position.y, abs=1e-6)

    def test_insufficient_data_raises(self):
        rec = _session(seed=3)
        tiny = RssiTrace(rec.rssi_traces["b"].samples[:4])
        with pytest.raises(InsufficientDataError):
            LocBLE().estimate(tiny, rec.observer_imu.trace)

    def test_truncated_walk_degrades(self):
        """Fig. 13b's shape: 50 % of the data is much worse than 100 %."""
        errs_full, errs_half = [], []
        for seed in range(6):
            rec = _session(seed=seed)
            trace = rec.rssi_traces["b"]
            truth = rec.true_position_in_frame("b")
            loc = LocBLE()
            errs_full.append(
                loc.estimate(trace, rec.observer_imu.trace).error_to(truth))
            try:
                e = loc.estimate(trace.truncated_fraction(0.5),
                                 rec.observer_imu.trace).error_to(truth)
            except InsufficientDataError:
                e = 10.0  # refusal counts as failure at this length
            errs_half.append(e)
        assert np.mean(errs_half) > np.mean(errs_full)


class TestLocBLEWithEnvAware(object):
    def test_envaware_segments_regression(self, trained_envaware):
        """An NLOS→LOS transition mid-walk must trigger a regression restart
        when EnvAware is on."""
        from repro.world.obstacles import wall
        rng = np.random.default_rng(11)
        # Wall covering only the first part of the walk path.
        plan = Floorplan("t", 14, 10,
                         obstacles=[wall(4.0, 0.0, 4.0, 10.0, "concrete_wall")])
        sim = Simulator(plan, rng)
        walk = straight_walk(Vec2(1, 5), 0.0, 9.0, speed=0.9)
        rec = sim.simulate(walk, [BeaconSpec("b", position=Vec2(12, 6))])
        loc = LocBLE(envaware=trained_envaware)
        ctx = loc._build_context(rec.rssi_traces["b"],
                                 rec.observer_imu.trace, None)
        # The true labels really change mid-trace...
        assert len(set(rec.env_labels["b"])) >= 2
        # ...and the pipeline noticed some change.
        assert len(ctx.env_changes) >= 1
        assert ctx.segment_start_index > 0

    def test_ablation_flags(self, trained_envaware):
        rec = _session(seed=4)
        full = LocBLE(envaware=trained_envaware)
        no_env = LocBLE(envaware=None)
        for loc in (full, no_env):
            est = loc.estimate(rec.rssi_traces["b"], rec.observer_imu.trace)
            assert est.position.norm() < 30.0


class TestLocBLEMovingTarget:
    def test_moving_target_initial_position(self):
        """Moving-target mode: error at the target's initial location
        (the paper's metric) should be bounded."""
        errs = []
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            sc = scenario(9)  # parking lot
            sim = Simulator(sc.floorplan, rng)
            observer = l_shape(Vec2(3, 3), 0.0, leg1=3.0, leg2=2.5)
            target = straight_walk(Vec2(9, 8), math.radians(200), 2.5,
                                   speed=0.8)
            rec = sim.simulate(observer, [
                BeaconSpec("m", trajectory=target)
            ])
            est = LocBLE().estimate(
                rec.rssi_traces["m"], rec.observer_imu.trace,
                target_imu=rec.target_imu.trace,
            )
            errs.append(est.error_to(rec.true_position_in_frame("m")))
        # Paper: < 2.5 m for > 50 % of runs; require the median bounded.
        assert np.median(errs) < 3.5

    def test_estimate_series_progresses(self):
        rec = _session(seed=5)
        t0 = rec.rssi_traces["b"].timestamps()[0]
        t1 = rec.rssi_traces["b"].timestamps()[-1]
        series = LocBLE().estimate_series(
            rec.rssi_traces["b"], rec.observer_imu.trace,
            times=list(np.linspace(t0, t1 + 0.1, 6)),
        )
        assert 1 <= len(series) <= 6
        assert all(t1 >= t0 for (t0, _), (t1, _) in zip(series, series[1:]))


class TestSeriesEqualsPrefixEstimates:
    def test_series_matches_per_prefix_estimate(self):
        """The series must equal estimating each prefix afresh."""
        for seed in (2, 7):
            rec = _session(seed=seed)
            trace = rec.rssi_traces["b"]
            imu = rec.observer_imu.trace
            ts = trace.timestamps()
            times = list(np.arange(float(ts[0]) + 2.0, float(ts[-1]) + 2.0,
                                   2.0))
            pipe = LocBLE()
            series = pipe.estimate_series(trace, imu, times)
            ref = []
            for t in times:
                partial = trace.slice_time(-math.inf, t)
                imu_p = ImuTrace(
                    [s for s in imu.samples if s.timestamp <= t])
                try:
                    ref.append((t, pipe.estimate(partial, imu_p)))
                except InsufficientDataError:
                    continue
            assert len(series) == len(ref)
            for (t_a, a), (t_b, b) in zip(series, ref):
                assert t_a == t_b
                assert a.position.x == b.position.x
                assert a.position.y == b.position.y
                assert a.n == b.n and a.gamma == b.gamma
                assert a.confidence == b.confidence
