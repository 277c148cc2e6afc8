"""Tests for the RF channel substrate."""


import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.channel.environment import ENV_PROFILES, realize_env
from repro.channel.fading import (
    ADVERTISING_CHANNELS,
    ENV_K_FACTOR_DB,
    FrequencySelectiveFading,
    RicianFading,
)
from repro.channel.link import RadioLink
from repro.channel.pathloss import (
    PathLossModel,
    distance_for_rss,
    rss_at,
)
from repro.channel.shadowing import ShadowingProcess
from repro.errors import ConfigurationError
from repro.types import EnvClass, Vec2
from repro.world.floorplan import Floorplan
from repro.world.obstacles import wall


class TestPathLoss:
    def test_reference_value_at_1m(self):
        assert rss_at(1.0, -59.0, 2.0) == pytest.approx(-59.0)

    def test_20db_per_decade_at_n2(self):
        assert rss_at(10.0, -59.0, 2.0) == pytest.approx(-79.0)

    def test_near_field_clamp(self):
        assert rss_at(0.0, -59.0, 2.0) == rss_at(0.1, -59.0, 2.0)

    def test_inversion_roundtrip(self):
        m = PathLossModel(-59.0, 2.4)
        for d in (0.5, 1.0, 3.7, 12.0):
            assert m.distance(m.rss(d)) == pytest.approx(d)

    def test_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            PathLossModel(n=0.0)
        with pytest.raises(ConfigurationError):
            distance_for_rss(-70.0, -59.0, -1.0)

    @given(st.floats(min_value=0.2, max_value=30.0),
           st.floats(min_value=1.2, max_value=4.0))
    def test_monotone_decreasing_in_distance(self, d, n):
        assert rss_at(d * 1.5, -59.0, n) < rss_at(d, -59.0, n)


class TestShadowing:
    def test_zero_sigma_is_silent(self, rng):
        p = ShadowingProcess(0.0, 1.0, rng)
        assert p.sample(Vec2(0, 0)) == 0.0

    def test_stationary_receiver_keeps_value(self, rng):
        p = ShadowingProcess(3.0, 1.0, rng)
        v1 = p.sample(Vec2(1, 1))
        v2 = p.sample(Vec2(1, 1))
        assert v1 == pytest.approx(v2)

    def test_small_moves_stay_correlated(self, rng):
        p = ShadowingProcess(3.0, 2.0, rng)
        v1 = p.sample(Vec2(0, 0))
        v2 = p.sample(Vec2(0.05, 0))
        assert abs(v2 - v1) < 3.0  # innovation std tiny for 5 cm move

    def test_long_run_statistics(self):
        # Marginal distribution should have std near sigma.
        rng = np.random.default_rng(0)
        p = ShadowingProcess(3.0, 1.0, rng)
        xs = []
        pos = Vec2(0, 0)
        for _ in range(4000):
            pos = pos + Vec2(0.5, 0.0)  # decorrelating strides
            xs.append(p.sample(pos))
        assert 2.4 < np.std(xs) < 3.6
        assert abs(np.mean(xs)) < 0.5

    def test_reset_forgets_state(self, rng):
        p = ShadowingProcess(3.0, 1.0, rng)
        p.sample(Vec2(0, 0))
        p.reset()
        assert p._last_pos is None

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            ShadowingProcess(-1.0, 1.0, rng)
        with pytest.raises(ConfigurationError):
            ShadowingProcess(1.0, 0.0, rng)


class TestRicianFading:
    def test_high_k_concentrates_near_zero_db(self):
        rng = np.random.default_rng(1)
        f = RicianFading(20.0, rng)
        draws = [f.sample_db() for _ in range(2000)]
        assert abs(np.mean(draws)) < 0.5
        assert np.std(draws) < 1.5

    def test_rayleigh_spreads_wide(self):
        rng = np.random.default_rng(1)
        f = RicianFading(-40.0, rng)
        draws = [f.sample_db() for _ in range(2000)]
        assert np.std(draws) > 3.0
        assert min(draws) < -10.0  # deep fades occur

    def test_mean_power_near_unity(self):
        rng = np.random.default_rng(2)
        f = RicianFading(6.0, rng)
        powers = [10 ** (f.sample_db() / 10.0) for _ in range(5000)]
        assert np.mean(powers) == pytest.approx(1.0, abs=0.08)

    def test_temporal_coherence_correlates_nearby_packets(self):
        rng = np.random.default_rng(5)
        f = RicianFading(6.0, rng, coherence_time_s=0.05)
        ts = np.arange(0, 5, 0.01)
        xs = np.array([f.sample_db(t) for t in ts])
        x = xs - xs.mean()

        def ac(lag):
            return float(np.sum(x[:-lag] * x[lag:]) / np.sum(x * x))

        assert ac(1) > 0.5     # 10 ms apart: strongly correlated
        assert abs(ac(50)) < 0.2  # 0.5 s apart: decorrelated

    def test_coherence_validation(self, rng):
        with pytest.raises(ConfigurationError):
            RicianFading(6.0, rng, coherence_time_s=0.0)

    def test_without_timestamp_stays_iid(self):
        rng = np.random.default_rng(5)
        f = RicianFading(6.0, rng, coherence_time_s=0.05)
        xs = np.array([f.sample_db() for _ in range(2000)])
        x = xs - xs.mean()
        lag1 = float(np.sum(x[:-1] * x[1:]) / np.sum(x * x))
        assert abs(lag1) < 0.1

    def test_for_env_validates(self, rng):
        with pytest.raises(ConfigurationError):
            RicianFading.for_env("SPACE", rng)
        assert (RicianFading.for_env(EnvClass.LOS, rng).k_factor_db
                == ENV_K_FACTOR_DB[EnvClass.LOS])


class TestFrequencySelectiveFading:
    def test_channels_differ_positions_smooth(self, rng):
        f = FrequencySelectiveFading(rng, amplitude_db=2.0)
        pos = Vec2(1.0, 1.0)
        offs = {ch: f.offset_db(ch, pos) for ch in ADVERTISING_CHANNELS}
        assert len({round(v, 6) for v in offs.values()}) == 3
        # Spatial smoothness: 1 cm move changes the offset only slightly.
        near = f.offset_db(37, Vec2(1.01, 1.0))
        assert abs(near - offs[37]) < 0.5

    def test_deterministic_per_link(self, rng):
        f = FrequencySelectiveFading(rng, amplitude_db=2.0)
        a = f.offset_db(38, Vec2(2, 3))
        b = f.offset_db(38, Vec2(2, 3))
        assert a == b

    def test_zero_amplitude(self, rng):
        f = FrequencySelectiveFading(rng, amplitude_db=0.0)
        assert f.offset_db(37, Vec2(5, 5)) == 0.0

    def test_rms_scale(self):
        rng = np.random.default_rng(3)
        f = FrequencySelectiveFading(rng, amplitude_db=2.0)
        grid = [f.offset_db(37, Vec2(x * 0.37, x * 0.11)) for x in range(500)]
        rms = float(np.sqrt(np.mean(np.square(grid))))
        assert 1.0 < rms < 3.5


class TestEnvRealization:
    def test_parameters_within_profile_ranges(self, rng):
        for env in EnvClass.ALL:
            prof = ENV_PROFILES[env]
            r = realize_env(env, rng)
            assert prof.n_range[0] <= r.n <= prof.n_range[1]
            lo, hi = prof.shadow_sigma_range_db
            assert lo <= r.shadow_sigma_db <= hi

    def test_unknown_class(self, rng):
        with pytest.raises(ConfigurationError):
            realize_env("MOON", rng)

    def test_nlos_harsher_than_los(self, rng):
        los = ENV_PROFILES[EnvClass.LOS]
        nlos = ENV_PROFILES[EnvClass.NLOS]
        assert nlos.n_range[0] > los.n_range[0]
        assert nlos.shadow_sigma_range_db[0] > los.shadow_sigma_range_db[0]
        assert nlos.k_factor_db < los.k_factor_db


class TestRadioLink:
    def _plan(self):
        return Floorplan("t", 10.0, 10.0,
                         obstacles=[wall(0, 5, 10, 5, "concrete_wall")])

    def test_rss_falls_with_distance(self):
        rng = np.random.default_rng(0)
        link = RadioLink(Floorplan("t", 20.0, 20.0), rng,
                         rx_jitter_std_db=0.0, fading_enabled=False)
        near = link.observe(Vec2(0, 1), Vec2(0, 2), 0.0).rss_dbm
        far = link.observe(Vec2(0, 1), Vec2(0, 12), 0.0).rss_dbm
        assert far < near

    def test_wall_crossing_drops_rss_and_class(self):
        rng = np.random.default_rng(0)
        link = RadioLink(self._plan(), rng, rx_jitter_std_db=0.0,
                         fading_enabled=False)
        same_side = link.observe(Vec2(5, 1), Vec2(5, 4), 0.0)
        through = link.observe(Vec2(5, 1), Vec2(5, 7), 0.0)
        assert same_side.env_class == EnvClass.LOS
        assert through.env_class == EnvClass.NLOS
        # Mean curve must include the wall's insertion loss.
        assert through.mean_rss_dbm < same_side.mean_rss_dbm - 10.0

    def test_true_params_stable_per_class(self):
        rng = np.random.default_rng(0)
        link = RadioLink(Floorplan("t", 10.0, 10.0), rng)
        a = link.true_params(EnvClass.LOS)
        b = link.true_params(EnvClass.LOS)
        assert a is b

    def test_quantised_output(self):
        rng = np.random.default_rng(0)
        link = RadioLink(Floorplan("t", 10.0, 10.0), rng)
        obs = link.observe(Vec2(0, 0), Vec2(3, 0), 0.0)
        assert obs.rss_dbm == round(obs.rss_dbm)

    def test_rx_offset_shifts_readings(self):
        plan = Floorplan("t", 10.0, 10.0)
        readings = {}
        for off in (0.0, 6.0):
            rng = np.random.default_rng(7)
            link = RadioLink(plan, rng, rx_noise_offset_db=off,
                             rx_jitter_std_db=0.0, fading_enabled=False,
                             quantise=False)
            readings[off] = link.observe(Vec2(0, 0), Vec2(4, 0), 0.0).rss_dbm
        assert readings[6.0] - readings[0.0] == pytest.approx(6.0)
