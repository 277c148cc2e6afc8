"""Property-based tests on cross-module invariants (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel.pathloss import distance_for_rss, rss_at
from repro.core.confidence import estimation_confidence
from repro.core.estimator import EllipticalEstimator
from repro.core.features import window_features
from repro.dtw.dtw import dtw_distance
from repro.filters.butterworth import ButterworthLowPass
from repro.filters.kalman import adaptive_kalman_fuse
from repro.filters.smoothing import moving_average
from repro.types import RssiTrace, Vec2, wrap_angle
from repro.world.trajectory import l_shape

positions = st.tuples(
    st.floats(min_value=1.5, max_value=8.0),
    st.floats(min_value=-6.0, max_value=6.0),
)
angles = st.floats(min_value=-math.pi, max_value=math.pi)


class TestPathLossInvariants:
    @given(st.floats(min_value=0.2, max_value=25.0),
           st.floats(min_value=-70.0, max_value=-45.0),
           st.floats(min_value=1.3, max_value=4.0))
    def test_rss_distance_inverse_pair(self, d, gamma, n):
        assert distance_for_rss(rss_at(d, gamma, n), gamma, n) == pytest.approx(
            max(d, 0.1), rel=1e-9)

    @given(st.floats(min_value=-95.0, max_value=-40.0),
           st.floats(min_value=1.3, max_value=4.0))
    def test_distance_positive(self, rss, n):
        assert distance_for_rss(rss, -59.0, n) > 0.0


class TestEstimatorInvariants:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(positions, st.floats(min_value=1.6, max_value=3.0))
    def test_noiseless_recovery_everywhere(self, true, n):
        """Wherever the beacon sits (off the walking line), the noiseless
        joint fit recovers it."""
        x, h = true
        if abs(h) < 0.5:
            h = 0.5 if h >= 0 else -0.5
        d = np.linspace(0.0, 4.5, 36)
        p = -np.minimum(d, 2.5)
        q = -np.clip(d - 2.5, 0.0, 2.0)
        l = np.hypot(x + p, h + q)
        rss = np.array([rss_at(di, -59.0, n) for di in l])
        fit = EllipticalEstimator(gamma_prior=None).fit(p, q, rss)
        assert fit.position.distance_to(Vec2(x, h)) < 0.3

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_estimate_finite_under_noise(self, seed):
        rng = np.random.default_rng(seed)
        d = np.linspace(0.0, 4.5, 36)
        p = -np.minimum(d, 2.5)
        q = -np.clip(d - 2.5, 0.0, 2.0)
        l = np.hypot(4.0 + p, 3.0 + q)
        rss = np.array([rss_at(di, -59.0, 2.0) for di in l])
        rss = rss + rng.normal(0, 3.0, len(rss))
        fit = EllipticalEstimator().fit(p, q, rss)
        assert math.isfinite(fit.position.x) and math.isfinite(fit.position.y)
        assert 1.0 <= fit.n <= 5.0
        assert -95.0 <= fit.gamma <= -25.0
        # Bounded by the search region (the BLE usable-range box).
        assert abs(fit.position.x) <= 18.0 and abs(fit.position.y) <= 18.0


class TestFilterInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-95, max_value=-40,
                              allow_nan=False), min_size=12, max_size=80))
    def test_butterworth_output_bounded(self, xs):
        y = ButterworthLowPass().apply(np.asarray(xs))
        # A stable low-pass with unity DC gain cannot wildly overshoot the
        # input range.
        span = max(xs) - min(xs) + 1.0
        assert np.all(y >= min(xs) - span) and np.all(y <= max(xs) + span)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-95, max_value=-40,
                              allow_nan=False), min_size=8, max_size=60))
    def test_akf_fusion_finite(self, xs):
        xs = np.asarray(xs)
        smoothed = moving_average(xs, 5)
        fused = adaptive_kalman_fuse(xs, smoothed)
        assert np.all(np.isfinite(fused))
        assert len(fused) == len(xs)


class TestFeatureInvariants:
    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=-100, max_value=-30,
                              allow_nan=False), min_size=4, max_size=40))
    def test_feature_order_relations(self, xs):
        f = dict(zip(
            ("mean", "variance", "skewness", "min", "q1", "median", "q3",
             "max", "iqr"),
            window_features(xs),
        ))
        assert f["min"] <= f["q1"] <= f["median"] <= f["q3"] <= f["max"]
        assert f["min"] <= f["mean"] <= f["max"]
        assert f["variance"] >= 0.0
        assert f["iqr"] == pytest.approx(f["q3"] - f["q1"])

    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=-100, max_value=-30,
                              allow_nan=False), min_size=4, max_size=40),
           st.floats(min_value=-20, max_value=20))
    def test_offset_shifts_location_not_dispersion(self, xs, offset):
        base = window_features(xs)
        shifted = window_features([x + offset for x in xs])
        # Location features shift by the offset; dispersion is unchanged.
        for i in (0, 3, 4, 5, 6, 7):  # mean, min, q1, median, q3, max
            assert shifted[i] == pytest.approx(base[i] + offset, abs=1e-6)
        assert shifted[1] == pytest.approx(base[1], abs=1e-6)  # variance
        assert shifted[8] == pytest.approx(base[8], abs=1e-6)  # iqr


class TestDtwInvariants:
    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False),
                    min_size=2, max_size=25),
           st.floats(min_value=-10, max_value=10))
    def test_common_offset_cancels_after_diff(self, xs, offset):
        a = np.diff(np.asarray(xs))
        b = np.diff(np.asarray(xs) + offset)
        assert dtw_distance(a, b) == pytest.approx(0.0, abs=1e-9)


class TestConfidenceInvariants:
    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=3, max_size=100))
    def test_confidence_in_unit_interval(self, xs):
        assert 0.0 <= estimation_confidence(xs) <= 1.0


class TestTrajectoryInvariants:
    @settings(max_examples=40)
    @given(st.floats(min_value=0.5, max_value=5.0),
           st.floats(min_value=0.5, max_value=5.0), angles)
    def test_l_shape_frame_displacement(self, leg1, leg2, heading):
        """In the measurement frame the L-walk always ends at
        (leg1, leg2) for a +90-degree turn, whatever the world heading."""
        t = l_shape(Vec2(3.0, 3.0), heading, leg1=leg1, leg2=leg2)
        end = t.displacement_in_frame(t.times[-1])
        assert end.x == pytest.approx(leg1, abs=1e-9)
        assert end.y == pytest.approx(leg2, abs=1e-9)

    @settings(max_examples=40)
    @given(angles, angles)
    def test_wrap_angle_additive_consistency(self, a, b):
        lhs = wrap_angle(wrap_angle(a) + wrap_angle(b))
        rhs = wrap_angle(a + b)
        assert math.isclose(math.cos(lhs), math.cos(rhs), abs_tol=1e-9)
        assert math.isclose(math.sin(lhs), math.sin(rhs), abs_tol=1e-9)


class TestTraceInvariants:
    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=60),
           st.floats(min_value=0.05, max_value=0.3))
    def test_truncation_monotone(self, n, dt):
        trace = RssiTrace.from_arrays(
            [i * dt for i in range(n)], [-70.0] * n)
        sizes = [len(trace.truncated_fraction(f))
                 for f in (0.3, 0.5, 0.8, 1.0)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == n
