"""Tests for the analysis tools: link budgets and coverage maps."""


import numpy as np
import pytest

from repro.analysis.coverage import CoverageMap
from repro.analysis.linkbudget import LinkBudget
from repro.ble.devices import BEACONS
from repro.errors import ConfigurationError
from repro.types import EnvClass, Vec2
from repro.world.floorplan import Floorplan
from repro.world.scenarios import scenario


class TestLinkBudget:
    def test_range_shrinks_with_blockage(self):
        clear = LinkBudget(BEACONS["estimote"], env_class=EnvClass.LOS)
        blocked = LinkBudget(BEACONS["estimote"], env_class=EnvClass.NLOS,
                             excess_loss_db=12.0)
        assert blocked.max_range_m() < clear.max_range_m()

    def test_ble5_outranges_legacy(self):
        legacy = LinkBudget(BEACONS["estimote"])
        ble5 = LinkBudget(BEACONS["ble5_longrange"])
        assert ble5.max_range_m() > 1.5 * legacy.max_range_m()
        assert ble5.sensitivity_dbm < legacy.sensitivity_dbm

    def test_usable_at_consistent_with_range(self):
        lb = LinkBudget(BEACONS["estimote"], env_class=EnvClass.LOS)
        r = lb.max_range_m()
        assert lb.usable_at(r * 0.9)
        assert not lb.usable_at(r * 1.1)

    def test_margin_monotone(self):
        lb = LinkBudget(BEACONS["estimote"])
        assert lb.margin_db(2.0) > lb.margin_db(8.0)

    def test_report_mentions_key_facts(self):
        text = LinkBudget(BEACONS["ble5_longrange"]).report()
        assert "coded PHY" in text and "max range" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkBudget(BEACONS["estimote"], env_class="SPACE")
        with pytest.raises(ConfigurationError):
            LinkBudget(BEACONS["estimote"], fade_margin_db=-1.0)

    def test_budget_agrees_with_simulator(self):
        """The analytical budget must predict simulated packet survival:
        inside the (fade-margined) usable range packets decode richly; well
        beyond the zero-margin decode cliff they are mostly lost."""
        from repro.channel.pathloss import distance_for_rss
        from repro.sim.simulator import BeaconSpec, Simulator
        from repro.world.trajectory import l_shape

        lb = LinkBudget(BEACONS["estimote"], env_class=EnvClass.LOS)
        usable = lb.max_range_m()
        cliff = distance_for_rss(lb.sensitivity_dbm,
                                 lb.profile.gamma_dbm, lb.exponent)
        assert cliff > usable  # margin pulls the usable range inside
        plan = Floorplan("open", 2.0 * cliff, 10.0, outdoor=True)
        for d, expect_rich in ((0.5 * usable, True), (1.4 * cliff, False)):
            rng = np.random.default_rng(1)
            sim = Simulator(plan, rng)
            d = min(d, 2.0 * cliff - 2.0)
            walk = l_shape(Vec2(1.0, 5.0), 0.0, leg1=2.0, leg2=1.5)
            rec = sim.simulate(walk, [
                BeaconSpec("b", position=Vec2(1.0 + d, 5.0))])
            rich = len(rec.rssi_traces["b"]) > 20
            assert rich == expect_rich, f"distance {d}"


class TestCoverageMap:
    def _map(self, idx=7):
        sc = scenario(idx)
        return CoverageMap(sc.floorplan, sc.beacon_position), sc

    def test_rss_decays_from_beacon(self):
        cm, sc = self._map(1)
        rss = cm.mean_rss_map()
        xs, ys = cm.grid()
        bi = int(np.argmin(np.abs(xs - sc.beacon_position.x)))
        bj = int(np.argmin(np.abs(ys - sc.beacon_position.y)))
        assert rss[bj, bi] == rss.max()

    def test_walls_shadow_the_map(self):
        cm, sc = self._map(7)
        rss = cm.mean_rss_map()
        xs, ys = cm.grid()
        # A cell behind the concrete wall is weaker than a same-distance
        # cell on the beacon's side.
        d = 3.0
        behind = rss[int(np.argmin(np.abs(ys - (sc.beacon_position.y - d)))),
                     int(np.argmin(np.abs(xs - 1.0)))]
        open_side = rss[int(np.argmin(np.abs(ys - sc.beacon_position.y))),
                        int(np.argmin(np.abs(xs - (sc.beacon_position.x - d))))]
        assert open_side > behind

    def test_coverage_fraction_bounds(self):
        cm, _ = self._map(1)
        assert 0.0 < cm.coverage_fraction() <= 1.0

    def test_ascii_map_renders(self):
        cm, _ = self._map(1)
        art = cm.ascii_map()
        assert "B" in art
        assert set(art) <= set("B#.\n")

    def test_validation(self):
        sc = scenario(1)
        with pytest.raises(ConfigurationError):
            CoverageMap(sc.floorplan, Vec2(99.0, 99.0))
        with pytest.raises(ConfigurationError):
            CoverageMap(sc.floorplan, sc.beacon_position, cell_m=0.0)
