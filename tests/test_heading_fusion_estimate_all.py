"""Tests for the complementary heading filter and estimate_all."""

import math

import numpy as np
import pytest

from repro.core.pipeline import LocBLE
from repro.errors import ConfigurationError
from repro.imu.sensors import ImuSynthesizer
from repro.motion.headingfusion import ComplementaryHeadingFilter
from repro.sim.simulator import BeaconSpec, Simulator
from repro.types import ImuSample, ImuTrace, RssiTrace, Vec2
from repro.world.geometry import wrap_angle
from repro.world.scenarios import scenario
from repro.world.trajectory import l_shape, straight_walk


class TestComplementaryHeadingFilter:
    def test_tracks_l_walk_turn(self):
        rng = np.random.default_rng(3)
        walk = l_shape(Vec2(0, 0), 0.0)
        out = ImuSynthesizer(rng).synthesize(walk)
        fused = ComplementaryHeadingFilter().relative_heading(out.trace)
        ts = out.trace.timestamps()
        # Before the turn: heading ~0; after: ~ +90 degrees.
        before = fused[(ts > walk.times[0] + 0.3) & (ts < walk.times[1] - 0.7)]
        after = fused[ts > walk.times[1] + 0.9]
        assert abs(np.median(before)) < math.radians(12.0)
        assert abs(np.median(after) - math.pi / 2) < math.radians(12.0)

    def test_smoother_than_raw_magnetometer(self):
        rng = np.random.default_rng(4)
        walk = straight_walk(Vec2(0, 0), 0.5, 6.0)
        out = ImuSynthesizer(rng).synthesize(walk)
        fused = ComplementaryHeadingFilter().filter(out.trace)
        raw = out.trace.mag_heading()
        assert np.std(np.diff(fused)) < np.std(np.diff(raw))

    def test_bounds_gyro_drift(self):
        # A biased gyro alone would drift without bound; the magnetometer
        # correction must cap the error.
        ts = np.arange(0, 60, 0.02)
        trace = ImuTrace([
            ImuSample(t, 0.0, 0.05, 0.0) for t in ts  # 0.05 rad/s bias
        ])
        fused = ComplementaryHeadingFilter(mag_time_constant_s=3.0).filter(trace)
        # Pure integration would reach 3 rad; fused stays near the (true)
        # zero magnetometer heading.
        assert abs(wrap_angle(fused[-1])) < 0.3

    def test_empty_trace(self):
        assert ComplementaryHeadingFilter().filter(ImuTrace([])).size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ComplementaryHeadingFilter(mag_time_constant_s=0.0)


class TestEstimateAll:
    def test_estimates_every_good_beacon(self):
        rng = np.random.default_rng(5)
        sc = scenario(1)
        sim = Simulator(sc.floorplan, rng)
        walk = l_shape(sc.observer_start, sc.observer_heading_rad)
        rec = sim.simulate(walk, [
            BeaconSpec("a", position=sc.beacon_position),
            BeaconSpec("b", position=sc.beacon_position + Vec2(0.5, -0.4)),
        ])
        results = LocBLE().estimate_all(rec.rssi_traces,
                                        rec.observer_imu.trace)
        assert set(results) == {"a", "b"}
        for bid, est in results.items():
            assert est.error_to(rec.true_position_in_frame(bid)) < 6.0

    def test_marginal_beacons_omitted_not_fatal(self):
        rng = np.random.default_rng(6)
        sc = scenario(1)
        sim = Simulator(sc.floorplan, rng)
        walk = l_shape(sc.observer_start, sc.observer_heading_rad)
        rec = sim.simulate(walk, [
            BeaconSpec("good", position=sc.beacon_position)])
        traces = dict(rec.rssi_traces)
        traces["stray"] = RssiTrace(rec.rssi_traces["good"].samples[:3])
        results = LocBLE().estimate_all(traces, rec.observer_imu.trace)
        assert "good" in results
        assert "stray" not in results
