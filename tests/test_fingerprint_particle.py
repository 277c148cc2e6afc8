"""Tests for the fingerprinting baseline and the particle-filter estimator."""

import numpy as np
import pytest

from repro.baselines.fingerprint import DistanceFingerprint, FingerprintLocator
from repro.baselines.particle import ParticleEstimator
from repro.channel.pathloss import rss_at
from repro.errors import (
    ConfigurationError,
    EstimationError,
    InsufficientDataError,
    NotFittedError,
)
from repro.types import Vec2


def _survey(rng, gamma=-59.0, n=2.3, n_points=120, noise=2.0):
    d = rng.uniform(0.5, 12.0, n_points)
    rss = np.array([rss_at(x, gamma, n) for x in d])
    rss = rss + rng.normal(0, noise, n_points)
    return d, rss


class TestDistanceFingerprint:
    def test_inverts_surveyed_curve(self, rng):
        d, rss = _survey(rng)
        fp = DistanceFingerprint().fit(d, rss)
        for dist in (1.0, 3.0, 6.0, 10.0):
            est = fp.invert(rss_at(dist, -59.0, 2.3))
            assert est == pytest.approx(dist, rel=0.35)

    def test_captures_nonstandard_exponent(self, rng):
        """The fingerprint's whole point: it learns whatever curve the site
        has, here a steep NLOS-ish n = 3 that a fixed n = 2 ranger misreads."""
        d, rss = _survey(rng, n=3.0)
        fp = DistanceFingerprint().fit(d, rss)
        est = fp.invert(rss_at(6.0, -59.0, 3.0))
        assert est == pytest.approx(6.0, rel=0.35)

    def test_monotone_grid(self, rng):
        d, rss = _survey(rng)
        fp = DistanceFingerprint().fit(d, rss)
        # Stronger signal must never imply a larger distance.
        ds = [fp.invert(r) for r in np.linspace(-90, -55, 40)]
        assert ds == sorted(ds, reverse=True)

    def test_unfitted_and_undersized(self, rng):
        with pytest.raises(NotFittedError):
            DistanceFingerprint().invert(-70.0)
        with pytest.raises(InsufficientDataError):
            DistanceFingerprint().fit([1.0] * 5, [-60.0] * 5)
        with pytest.raises(EstimationError):
            DistanceFingerprint().fit([1.0, 2.0], [[-60.0], [-61.0]])


class TestFingerprintLocator:
    def test_locates_with_good_survey(self, rng):
        gamma, n = -59.0, 2.5
        d, rss = _survey(rng, gamma=gamma, n=n, noise=1.0)
        fp = DistanceFingerprint().fit(d, rss)
        truth = Vec2(4.0, 3.0)
        positions = [Vec2(x, 0.0) for x in np.linspace(0, 2.5, 15)]
        positions += [Vec2(2.5, y) for y in np.linspace(0.2, 2.0, 15)]
        live = [rss_at(p.distance_to(truth), gamma, n) for p in positions]
        est = FingerprintLocator(fp).estimate(positions, live)
        assert est.distance_to(truth) < 1.0

    def test_stale_survey_hurts(self, rng):
        """Environment change after the survey (n drifts 2.0 -> 3.0): the
        fingerprint misranges — the maintenance cost LocBLE avoids."""
        d, rss = _survey(rng, n=2.0, noise=0.5)
        fp = DistanceFingerprint().fit(d, rss)
        truth = Vec2(5.0, 2.0)
        positions = [Vec2(x, 0.0) for x in np.linspace(0, 2.5, 12)]
        positions += [Vec2(2.5, y) for y in np.linspace(0.2, 2.0, 12)]
        live = [rss_at(p.distance_to(truth), -59.0, 3.0) for p in positions]
        est = FingerprintLocator(fp).estimate(positions, live)
        assert est.distance_to(truth) > 1.5

    def test_validation(self, rng):
        d, rss = _survey(rng)
        fp = DistanceFingerprint().fit(d, rss)
        loc = FingerprintLocator(fp)
        with pytest.raises(EstimationError):
            loc.estimate([Vec2(0, 0)], [1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            loc.estimate([Vec2(0, 0)] * 3, [-70.0] * 3)


def _l_walk_readings(rng, true=(4.0, 3.0), gamma=-59.0, n=2.1, noise=1.5,
                     n_samples=40):
    d = np.linspace(0, 4.5, n_samples)
    p = -np.minimum(d, 2.5)
    q = -np.clip(d - 2.5, 0, 2.0)
    l = np.hypot(true[0] + p, true[1] + q)
    rss = np.array([rss_at(x, gamma, n) for x in l])
    rss = rss + rng.normal(0, noise, n_samples)
    return p, q, rss


class TestParticleEstimator:
    def test_converges_on_l_walk(self):
        errs = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            p, q, rss = _l_walk_readings(rng)
            pf = ParticleEstimator(rng)
            pf.update_batch(p, q, rss)
            est = pf.estimate()
            errs.append(est.position.distance_to(Vec2(4.0, 3.0)))
        assert np.median(errs) < 2.0

    def test_uncertainty_shrinks_with_data(self, rng):
        p, q, rss = _l_walk_readings(rng)
        pf = ParticleEstimator(rng)
        pf.update_batch(p[:10], q[:10], rss[:10])
        early_std = pf.estimate().position_std
        pf.update_batch(p[10:], q[10:], rss[10:])
        late_std = pf.estimate().position_std
        assert late_std < early_std

    def test_confidence_in_unit_interval(self, rng):
        p, q, rss = _l_walk_readings(rng)
        pf = ParticleEstimator(rng)
        pf.update_batch(p, q, rss)
        assert 0.0 <= pf.estimate().confidence <= 1.0

    def test_estimates_pathloss_parameters(self, rng):
        p, q, rss = _l_walk_readings(rng, gamma=-62.0, n=2.4, noise=0.8)
        pf = ParticleEstimator(rng, n_particles=3000)
        pf.update_batch(p, q, rss)
        est = pf.estimate()
        assert est.gamma == pytest.approx(-62.0, abs=7.0)
        assert est.n == pytest.approx(2.4, abs=0.8)

    def test_resampling_keeps_ess_alive(self, rng):
        p, q, rss = _l_walk_readings(rng)
        pf = ParticleEstimator(rng)
        pf.update_batch(p, q, rss)
        assert pf.effective_sample_size > 0.1 * pf.n_particles

    def test_reset_restores_prior(self, rng):
        p, q, rss = _l_walk_readings(rng)
        pf = ParticleEstimator(rng)
        pf.update_batch(p, q, rss)
        pf.reset()
        with pytest.raises(EstimationError):
            pf.estimate()

    def test_no_data_raises(self, rng):
        with pytest.raises(EstimationError):
            ParticleEstimator(rng).estimate()

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            ParticleEstimator(rng, n_particles=10)
        with pytest.raises(ConfigurationError):
            ParticleEstimator(rng, rss_sigma_db=0.0)
