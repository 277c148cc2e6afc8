"""Tests for the elliptical-regression estimator and its supporting math."""

import math

import numpy as np
import pytest

from repro import obs, perf
from repro.channel.pathloss import rss_at
from repro.core.confidence import estimation_confidence
from repro.core.estimator import EllipticalEstimator
from repro.errors import EstimationError, InsufficientDataError
from repro.types import Vec2


def _l_walk_displacements(n=40, leg1=2.5, leg2=2.0):
    """Observer displacements along a canonical L-walk (+x then +y)."""
    d = np.linspace(0, leg1 + leg2, n)
    ax = np.minimum(d, leg1)
    cy = np.clip(d - leg1, 0.0, leg2)
    return -ax, -cy  # p, q for a stationary target


def _rss_for(true, p, q, gamma=-59.0, n=2.0, noise=0.0, rng=None):
    l = np.hypot(true[0] + p, true[1] + q)
    rss = np.array([rss_at(d, gamma, n) for d in l])
    if noise > 0:
        rss = rss + rng.normal(0, noise, len(rss))
    return rss


class TestNoiselessRecovery:
    @pytest.mark.parametrize("true", [(4.0, 3.0), (2.0, -4.0), (6.0, 1.0)])
    def test_exact_position(self, true):
        p, q = _l_walk_displacements()
        est = EllipticalEstimator(gamma_prior=None)
        r = est.fit(p, q, _rss_for(true, p, q))
        assert r.position.distance_to(Vec2(*true)) < 0.05

    def test_exact_parameters(self):
        p, q = _l_walk_displacements()
        est = EllipticalEstimator(gamma_prior=None)
        r = est.fit(p, q, _rss_for((4.0, 3.0), p, q, gamma=-62.0, n=2.4))
        assert r.gamma == pytest.approx(-62.0, abs=0.3)
        assert r.n == pytest.approx(2.4, abs=0.1)

    def test_residuals_near_zero(self):
        p, q = _l_walk_displacements()
        est = EllipticalEstimator(gamma_prior=None)
        r = est.fit(p, q, _rss_for((4.0, 3.0), p, q))
        assert r.rss_rmse < 0.05


class TestNoisyAccuracy:
    def test_mean_error_in_paper_band(self, rng):
        """With 1.5 dB RSS noise the estimator should land well under 2 m on
        average — the paper's indoor average is 1.8 m with a harsher channel."""
        errs = []
        est = EllipticalEstimator()
        for seed in range(15):
            r = np.random.default_rng(seed)
            true = (r.uniform(2.5, 6.5), r.uniform(-5, 5))
            p, q = _l_walk_displacements()
            rss = _rss_for(true, p, q, gamma=-59 + r.uniform(-3, 3),
                           n=r.uniform(1.8, 2.6), noise=1.5, rng=r)
            fit = est.fit(p, q, rss)
            errs.append(fit.position.distance_to(Vec2(*true)))
        assert np.mean(errs) < 2.0

    def test_env_prior_helps_in_nlos(self):
        """The EnvAware-informed priors must beat the LOS defaults on data
        from an NLOS link: steep exponent plus a blocker's insertion loss
        (which lowers the effective 1 m reference the readings follow)."""
        base = EllipticalEstimator()
        informed = base.with_environment("NLOS")
        errs_base, errs_informed = [], []
        for seed in range(12):
            r = np.random.default_rng(100 + seed)
            true = (r.uniform(3, 6), r.uniform(-4, 4))
            p, q = _l_walk_displacements()
            # gamma -71 = advertised -59 minus a 12 dB concrete-wall loss.
            rss = _rss_for(true, p, q, gamma=-71.0, n=2.8, noise=1.5, rng=r)
            errs_base.append(
                base.fit(p, q, rss).position.distance_to(Vec2(*true)))
            errs_informed.append(
                informed.fit(p, q, rss).position.distance_to(Vec2(*true)))
        assert np.mean(errs_informed) < np.mean(errs_base)


class TestSingleLegAmbiguity:
    def test_mirror_pair_returned(self):
        a = np.linspace(0, 3.5, 35)
        est = EllipticalEstimator(gamma_prior=None)
        l = np.hypot(4.0 - a, 3.0)
        rss = np.array([rss_at(d, -59.0, 2.0) for d in l])
        res_pos, res_neg = est.fit_leg(a, rss)
        assert res_pos.position.y >= 0 >= res_neg.position.y
        assert res_pos.position.x == pytest.approx(res_neg.position.x)
        assert res_pos.position.distance_to(Vec2(4, 3)) < 0.1

    def test_fit_detects_straight_movement(self):
        # fit() with q == 0 must return a mirror candidate.
        a = np.linspace(0, 3.5, 35)
        l = np.hypot(4.0 - a, 3.0)
        rss = np.array([rss_at(d, -59.0, 2.0) for d in l])
        est = EllipticalEstimator(gamma_prior=None)
        r = est.fit(-a, np.zeros_like(a), rss)
        assert r.mirror is not None

    def test_l_walk_has_no_mirror(self):
        p, q = _l_walk_displacements()
        est = EllipticalEstimator(gamma_prior=None)
        r = est.fit(p, q, _rss_for((4.0, 3.0), p, q))
        assert r.mirror is None


class TestValidation:
    def test_too_few_samples(self):
        est = EllipticalEstimator()
        with pytest.raises(InsufficientDataError):
            est.fit([0.0] * 5, [0.0] * 5, [-70.0] * 5)

    def test_no_movement(self):
        est = EllipticalEstimator()
        with pytest.raises(InsufficientDataError):
            est.fit(np.zeros(20), np.zeros(20), np.full(20, -70.0))

    def test_misaligned_arrays(self):
        est = EllipticalEstimator()
        with pytest.raises(EstimationError):
            est.fit(np.zeros(10), np.zeros(9), np.zeros(10))

    def test_unknown_environment(self):
        with pytest.raises(EstimationError):
            EllipticalEstimator().with_environment("UNDERWATER")


class TestConfidence:
    def test_centered_residuals_high_confidence(self, rng):
        assert estimation_confidence(rng.normal(0, 1, 200)) > 0.5

    def test_shifted_residuals_low_confidence(self, rng):
        assert estimation_confidence(rng.normal(3.0, 1.0, 200)) < 0.05

    def test_perfect_fit(self):
        assert estimation_confidence(np.zeros(10)) == 1.0

    def test_degenerate_constant_offset(self):
        assert estimation_confidence(np.full(10, 2.0)) == 0.0

    def test_too_few(self):
        with pytest.raises(InsufficientDataError):
            estimation_confidence([0.1, 0.2])

    def test_monotone_in_shift(self, rng):
        base = rng.normal(0, 1, 300)
        confs = [estimation_confidence(base + s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert confs == sorted(confs, reverse=True)

    def test_two_cluster_shift_not_masked_by_scale(self, rng):
        """Regression: an NLOS transition mid-trace offsets a minority of
        residuals. The sample std absorbs the offset (z stays ~0.6, an
        unearned ~0.5 confidence); the MAD scale must flag it."""
        r = np.concatenate([rng.normal(0.0, 0.5, 140),
                            rng.normal(8.0, 0.5, 60)])
        rng.shuffle(r)
        std_based_z = abs(np.mean(r)) / np.std(r, ddof=1)
        assert std_based_z < 1.0  # the old statistic would have been blind
        assert estimation_confidence(r) < 0.05


class TestCovarianceConditioning:
    """Regression: unobservable geometry must cap the position std *loudly*.

    The original covariance used ``inv(J'J + 1e-9 I)`` under a bare
    ``except LinAlgError: pass`` — a collinear walk produced either a
    garbage std or a silent 25 m fallback with no record of which. Now the
    normal matrix is conditioning-checked, the fallback is a typed
    ``cov_status``, and the winning fit emits one counted
    ``estimator.cov_fallbacks`` signal.
    """

    def _fit_straight_walk(self):
        # Walk straight toward a beacon sitting ON the walk axis: the
        # cross-track coordinate is unobservable (its Jacobian column
        # vanishes at the optimum), so the GN normal matrix is singular.
        ox = np.linspace(0.0, 3.0, 30)
        dist = np.abs(5.0 - ox)
        rss = np.array([rss_at(d, -59.0, 2.0) for d in dist])
        return EllipticalEstimator().fit(-ox, np.zeros(30), rss)

    def test_healthy_walk_reports_trusted_covariance(self):
        p, q = _l_walk_displacements()
        est = EllipticalEstimator(gamma_prior=None)
        r = est.fit(p, q, _rss_for((4.0, 3.0), p, q))
        assert r.cov_status == "ok"
        assert r.cov_cond is not None
        assert r.cov_cond < EllipticalEstimator.COND_LIMIT
        assert 0.0 < r.position_std < EllipticalEstimator.POS_STD_CAP
        assert r.solver == "gauss-newton"
        assert r.n_candidates > 0

    def test_collinear_walk_caps_std_and_types_the_fallback(self):
        r = self._fit_straight_walk()
        assert r.cov_status in ("rank-deficient", "capped")
        assert r.position_std == EllipticalEstimator.POS_STD_CAP

    def test_collinear_fallback_is_evented_and_counted(self):
        obs.reset()
        before = perf.counter_value("estimator.cov_fallbacks")
        self._fit_straight_walk()
        after = perf.counter_value("estimator.cov_fallbacks")
        events = [e for e in obs.tail()
                  if e.name == "estimator.cov_fallbacks"]
        assert after - before == 1
        assert len(events) == 1
        assert events[0].severity == "warning"
        assert events[0].fields["status"] in ("rank-deficient", "capped")
        assert events[0].fields["position_std"] == (
            EllipticalEstimator.POS_STD_CAP)
        obs.reset()

    def test_healthy_walk_emits_no_fallback_event(self):
        obs.reset()
        p, q = _l_walk_displacements()
        EllipticalEstimator(gamma_prior=None).fit(
            p, q, _rss_for((4.0, 3.0), p, q))
        assert all(e.name != "estimator.cov_fallbacks" for e in obs.tail())
        obs.reset()


class TestVectorizedGridSearch:
    """The batched grid solver must reproduce the per-candidate loop."""

    def _workload(self, seed, n_samples=35, use_q=True):
        rng = np.random.default_rng(seed)
        true = Vec2(rng.uniform(1.0, 4.0), rng.uniform(0.5, 3.0))
        ox = np.linspace(0, 2.8, n_samples)
        oy = (np.linspace(0, 2.2, n_samples) if use_q
              else np.zeros(n_samples))
        p, q = -ox, -oy
        dist = np.hypot(ox - true.x, oy - true.y)
        rss = np.array([rss_at(d, -58.0, 2.3) for d in dist])
        return p, q, rss + rng.normal(0, 1.2, n_samples)

    @pytest.mark.parametrize("use_q", [True, False])
    def test_matches_reference(self, use_q):
        est = EllipticalEstimator()
        for seed in range(15):
            p, q, rss = self._workload(seed, use_q=use_q)
            ref = est._fit_linearized_reference(p, q, rss, use_q=use_q)
            vec = est._fit_linearized(p, q, rss, use_q=use_q)
            assert vec.n == ref.n
            assert vec.gamma == pytest.approx(ref.gamma, rel=1e-9)
            assert vec.epsilon == pytest.approx(ref.epsilon, rel=1e-9)
            assert vec.position.x == pytest.approx(ref.position.x, rel=1e-9)
            assert vec.position.y == pytest.approx(ref.position.y, rel=1e-9)
            np.testing.assert_allclose(vec.residuals, ref.residuals,
                                       rtol=1e-8, atol=1e-10)

    def test_public_fit_unchanged(self):
        est = EllipticalEstimator()
        p, q, rss = self._workload(42)
        fit = est.fit(p, q, rss)
        assert math.isfinite(fit.position.x) and math.isfinite(fit.gamma)
