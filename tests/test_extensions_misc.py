"""Tests for the remaining Sec. 9 extensions: straight-walk mode, crowding,
Bluetooth 5 profiles, the beacon tracker and the CLI."""

import argparse

import numpy as np
import pytest

from repro.ble.devices import BEACONS
from repro.ble.interference import CrowdInterference, crowding_loss_probability
from repro.channel.pathloss import rss_at
from repro.cli import build_parser
from repro.cli import main as cli_main
from repro.core.estimator import EllipticalEstimator, FitResult
from repro.core.straightwalk import StraightWalkResolver
from repro.core.tracking import BeaconTracker
from repro.errors import ConfigurationError, EstimationError, InsufficientDataError
from repro.obs.sinks import DURABILITY_POLICIES
from repro.sim.simulator import BeaconSpec, Simulator
from repro.types import LocationEstimate, Vec2
from repro.world.floorplan import Floorplan
from repro.world.obstacles import wall
from repro.world.trajectory import l_shape


class TestStraightWalkResolver:
    def _fit(self, true=Vec2(4.0, 3.0)):
        a = np.linspace(0, 3.5, 35)
        l = np.hypot(true.x - a, true.y)
        rss = np.array([rss_at(d, -59.0, 2.0) for d in l])
        fit, _ = EllipticalEstimator(gamma_prior=None).fit_leg(a, rss)
        return fit

    def _feed_turn(self, resolver, fit, true, n_obs=10, noise=0.0, rng=None):
        """Observer turns off the line toward +y and walks; feed readings."""
        # Observer moves from (3.5, 0) toward (3.5, +2.5).
        for k in range(n_obs):
            obs = Vec2(3.5, 0.25 * (k + 1))
            p, q = -obs.x, -obs.y
            d = true.distance_to(obs)
            rss = rss_at(d, fit.gamma, fit.n)
            if noise and rng is not None:
                rss += rng.normal(0, noise)
            resolver.observe(p, q, rss)

    def test_resolves_to_true_side(self):
        true = Vec2(4.0, 3.0)
        fit = self._fit(true)
        resolver = StraightWalkResolver(fit)
        self._feed_turn(resolver, fit, true)
        winner = resolver.resolved()
        assert winner is not None
        assert winner.y > 0  # the true (positive-y) side wins
        assert winner.distance_to(true) < 0.5

    def test_resolves_to_mirror_when_truth_is_mirror(self):
        # The beacon is actually on the negative-y side: the straight-leg
        # fit's canonical candidate (h >= 0) is the wrong one.
        true = Vec2(4.0, -3.0)
        fit = self._fit(Vec2(4.0, 3.0))  # same RSS as the mirrored truth
        resolver = StraightWalkResolver(fit)
        self._feed_turn(resolver, fit, true)
        winner = resolver.resolved()
        assert winner is not None
        assert winner.y < 0

    def test_noisy_still_resolves(self, rng):
        true = Vec2(4.0, 3.0)
        fit = self._fit(true)
        resolver = StraightWalkResolver(fit)
        self._feed_turn(resolver, fit, true, n_obs=12, noise=1.0, rng=rng)
        assert resolver.current.y > 0

    def test_undecided_before_enough_observations(self):
        fit = self._fit()
        resolver = StraightWalkResolver(fit, min_observations=6)
        resolver.observe(-1.0, 0.0, -70.0)
        assert resolver.resolved() is None
        assert resolver.current == fit.position  # primary until evidence
        with pytest.raises(InsufficientDataError):
            resolver.scores()

    def test_requires_mirror(self):
        fit = FitResult(position=Vec2(1, 1), n=2.0, gamma=-59.0,
                        epsilon=1.0, residuals=np.zeros(5), mirror=None)
        with pytest.raises(EstimationError):
            StraightWalkResolver(fit)

    def test_margin_validated(self):
        fit = self._fit()
        with pytest.raises(EstimationError):
            StraightWalkResolver(fit, decision_margin=1.0)


class TestCrowdInterference:
    def test_loss_monotone_in_crowd(self):
        losses = [crowding_loss_probability(n) for n in (0, 5, 10, 20, 50)]
        assert losses == sorted(losses)
        assert losses[0] == 0.0
        assert losses[-1] < 1.0

    def test_paper_rate_drop_regime(self):
        # Sec. 6.1: 8 Hz -> ~3 Hz is ~60 % loss; reached around 18 devices.
        assert 0.55 < crowding_loss_probability(18) < 0.65

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            crowding_loss_probability(-1)
        with pytest.raises(ConfigurationError):
            crowding_loss_probability(5, half_load=0.0)

    def test_profile_counts_simulated_beacons(self):
        crowd = CrowdInterference(n_ambient=10)
        assert crowd.loss_probability(5) > crowd.loss_probability(1)
        assert crowd.extra_jitter_db(1) == pytest.approx(0.4)

    def test_simulator_rate_drops_in_crowd(self):
        from repro.world.scenarios import scenario

        sc = scenario(1)
        rates = {}
        for label, crowd in (("quiet", None),
                             ("crowded", CrowdInterference(n_ambient=18))):
            rng = np.random.default_rng(3)
            sim = Simulator(sc.floorplan, rng, crowd=crowd)
            walk = l_shape(sc.observer_start, sc.observer_heading_rad)
            rec = sim.simulate(walk, [
                BeaconSpec("b", position=sc.beacon_position)])
            rates[label] = rec.rssi_traces["b"].mean_rate_hz()
        assert rates["crowded"] < 0.6 * rates["quiet"]


class TestBluetooth5:
    def test_profile_flags(self):
        b5 = BEACONS["ble5_longrange"]
        assert b5.ble_version == 5 and b5.coded_phy
        assert b5.gamma_dbm > BEACONS["estimote"].gamma_dbm + 5.0

    def test_long_range_survives_deep_blockage(self):
        plan = Floorplan("deep", 20, 8, obstacles=[
            wall(8, 0, 8, 8, "concrete_wall"),
            wall(13, 0, 13, 8, "cinder_wall"),
        ])
        counts = {}
        for name in ("estimote", "ble5_longrange"):
            rng = np.random.default_rng(2)
            sim = Simulator(plan, rng)
            walk = l_shape(Vec2(1, 4), 0.0, leg1=2.8, leg2=2.2)
            rec = sim.simulate(walk, [
                BeaconSpec("b", position=Vec2(18, 4),
                           profile=BEACONS[name])])
            counts[name] = len(rec.rssi_traces["b"])
        assert counts["ble5_longrange"] > counts["estimote"] + 5


class TestBeaconTracker:
    def _fix(self, x, y, std=0.5):
        return LocationEstimate(position=Vec2(x, y), position_std=std)

    def test_first_fix_initialises(self):
        tr = BeaconTracker()
        state = tr.update(0.0, self._fix(2.0, 1.0))
        assert state.position == Vec2(2.0, 1.0)
        assert state.velocity == Vec2(0.0, 0.0)

    def test_stationary_fixes_average_down_noise(self, rng):
        tr = BeaconTracker(process_accel_std=0.01)
        truth = Vec2(5.0, 5.0)
        for k in range(20):
            noisy = truth + Vec2(rng.normal(0, 0.8), rng.normal(0, 0.8))
            state = tr.update(float(k), LocationEstimate(
                position=noisy, position_std=0.8))
        assert state.position.distance_to(truth) < 0.5
        assert state.speed < 0.2

    def test_tracks_constant_velocity(self, rng):
        tr = BeaconTracker(process_accel_std=0.3)
        v = Vec2(0.5, -0.2)
        for k in range(25):
            t = 0.5 * k
            truth = Vec2(1.0, 8.0) + v * t
            tr.update(t, LocationEstimate(
                position=truth + Vec2(rng.normal(0, 0.3),
                                      rng.normal(0, 0.3)),
                position_std=0.3))
        state = tr.state()
        assert state.velocity.distance_to(v) < 0.2
        # Prediction extrapolates along the velocity.
        ahead = tr.predict(state.time + 2.0)
        expected = state.position + state.velocity * 2.0
        assert ahead.position.distance_to(expected) < 1e-6
        assert ahead.position_std > state.position_std

    def test_uncertain_fix_barely_moves_track(self):
        tr = BeaconTracker(process_accel_std=0.01)
        for k in range(6):
            tr.update(float(k), self._fix(3.0, 3.0, std=0.2))
        before = tr.state().position
        tr.update(7.0, self._fix(12.0, 12.0, std=20.0))  # wild, vague fix
        after = tr.state().position
        assert after.distance_to(before) < 1.0

    def test_time_order_enforced(self):
        tr = BeaconTracker()
        tr.update(1.0, self._fix(0, 0))
        with pytest.raises(EstimationError):
            tr.update(0.5, self._fix(0, 0))
        with pytest.raises(EstimationError):
            tr.predict(0.5)

    def test_unfitted_raises(self):
        with pytest.raises(EstimationError):
            BeaconTracker().state()
        with pytest.raises(ConfigurationError):
            BeaconTracker(default_fix_std=0.0)


class TestCli:
    def test_locate(self, capsys):
        assert cli_main(["locate", "--scenario", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "error" in out and "meeting_room" in out

    def test_envaware(self, capsys):
        assert cli_main(["envaware", "--sessions", "2",
                         "--test-sessions", "1"]) == 0
        assert "precision" in capsys.readouterr().out

    def test_cluster(self, capsys):
        assert cli_main(["cluster", "--scenario", "7", "--beacons", "2",
                         "--seed", "0"]) == 0
        assert "calibrated error" in capsys.readouterr().out

    def test_sweep_distance(self, capsys):
        assert cli_main(["sweep-distance", "--repeats", "1"]) == 0
        assert "distance" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert cli_main(["table1", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "meeting_room" in out and "parking_lot" in out

    def test_coverage(self, capsys):
        assert cli_main(["coverage", "--scenario", "6", "--cell", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out and "B" in out

    def test_report(self, capsys):
        assert cli_main(["report", "--scenario", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "session report" in out and "ground truth" in out

    def test_bad_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["warp-drive"])

    def test_chaos_durability_choices_are_the_write_policies(self):
        """``chaos --durability`` offers exactly the policies the sinks,
        the trace writer and the store accept (the parser spells them out
        rather than import them)."""
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        (durability,) = [a for a in commands.choices["chaos"]._actions
                         if a.dest == "durability"]
        assert tuple(durability.choices) == DURABILITY_POLICIES
