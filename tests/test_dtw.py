"""Tests for DTW, LB_Keogh and the segment voting matcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtw.dtw import _dtw_distance_reference, dtw_distance, dtw_full
from repro.dtw.lowerbound import envelope, lb_keogh
from repro.dtw.segmatch import SegmentMatcher
from repro.errors import ConfigurationError, InsufficientDataError
from repro.types import RssiTrace

seqs = st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=2, max_size=30)


class TestDtwDistance:
    def test_identical_sequences_zero(self):
        a = [1.0, 2.0, 3.0]
        assert dtw_distance(a, a) == 0.0

    def test_known_small_case(self):
        # [0, 1] vs [0, 1, 1]: the repeated 1 aligns free.
        assert dtw_distance([0.0, 1.0], [0.0, 1.0, 1.0]) == 0.0

    def test_constant_offset_costs_per_step(self):
        a = np.zeros(5)
        b = np.ones(5)
        assert dtw_distance(a, b) == pytest.approx(5.0)

    def test_time_warp_invariance(self):
        # A stretched copy of the same shape matches cheaply; a different
        # shape does not.
        t = np.linspace(0, 2 * np.pi, 40)
        shape = np.sin(t)
        stretched = np.sin(np.linspace(0, 2 * np.pi, 55))
        different = np.cos(t)
        assert dtw_distance(shape, stretched) < dtw_distance(shape, different)

    def test_window_constrains_alignment(self):
        a = np.concatenate([np.zeros(20), np.ones(20)])
        b = np.concatenate([np.zeros(30), np.ones(10)])
        free = dtw_distance(a, b)
        tight = dtw_distance(a, b, window=2)
        assert tight >= free

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            dtw_distance([], [1.0])

    @given(seqs, seqs)
    @settings(max_examples=40)
    def test_symmetry(self, a, b):
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    @given(seqs)
    @settings(max_examples=40)
    def test_self_distance_zero(self, a):
        assert dtw_distance(a, a) == pytest.approx(0.0, abs=1e-9)


class TestVectorizedMatchesReference:
    """The banded two-buffer update must reproduce the per-cell DP exactly."""

    @given(seqs, seqs,
           st.one_of(st.none(), st.integers(min_value=0, max_value=12)))
    @settings(max_examples=60)
    def test_equivalence(self, a, b, window):
        assert dtw_distance(a, b, window=window) == pytest.approx(
            _dtw_distance_reference(a, b, window=window), rel=1e-9, abs=1e-9
        )

    def test_degenerate_length_one(self):
        assert dtw_distance([3.0], [5.0]) == pytest.approx(2.0)
        assert dtw_distance([3.0], [5.0, 4.0], window=0) == pytest.approx(
            _dtw_distance_reference([3.0], [5.0, 4.0], window=0))

    def test_mismatched_lengths(self, rng):
        a = rng.normal(size=7)
        b = rng.normal(size=31)
        for w in (None, 0, 1, 3, 50):
            assert dtw_distance(a, b, window=w) == pytest.approx(
                _dtw_distance_reference(a, b, window=w), rel=1e-9)

    def test_long_sequences_window(self, rng):
        a = np.cumsum(rng.normal(size=200))
        b = np.cumsum(rng.normal(size=200))
        assert dtw_distance(a, b, window=10) == pytest.approx(
            _dtw_distance_reference(a, b, window=10), rel=1e-9)


class TestDtwFull:
    def test_matches_fast_path(self, rng):
        a = rng.normal(size=25)
        b = rng.normal(size=30)
        assert dtw_full(a, b).distance == pytest.approx(dtw_distance(a, b))

    def test_path_endpoints(self, rng):
        a, b = rng.normal(size=10), rng.normal(size=12)
        r = dtw_full(a, b)
        assert r.path[0] == (0, 0)
        assert r.path[-1] == (9, 11)

    def test_path_monotone(self, rng):
        a, b = rng.normal(size=15), rng.normal(size=15)
        path = dtw_full(a, b).path
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert 0 <= i1 - i0 <= 1 and 0 <= j1 - j0 <= 1
            assert (i1, j1) != (i0, j0)

    def test_cost_matrix_shape(self, rng):
        a, b = rng.normal(size=8), rng.normal(size=11)
        assert dtw_full(a, b).cost_matrix.shape == (8, 11)

    def test_normalized_distance(self):
        r = dtw_full(np.zeros(10), np.ones(10))
        assert r.normalized_distance == pytest.approx(
            r.distance / len(r.path)
        )


class TestLbKeogh:
    def test_envelope_bounds_target(self, rng):
        t = rng.normal(size=30)
        upper, lower = envelope(t, 3)
        assert np.all(upper >= t) and np.all(lower <= t)

    def test_envelope_window_zero_is_identity(self, rng):
        t = rng.normal(size=10)
        upper, lower = envelope(t, 0)
        assert np.array_equal(upper, t) and np.array_equal(lower, t)

    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=70), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_envelope_matches_scipy_filters(self, n, window, seed):
        """The NumPy envelope is scipy's sliding max/min with
        ``mode="nearest"``, exactly, windows longer than the target too."""
        from scipy.ndimage import maximum_filter1d, minimum_filter1d

        t = np.random.default_rng(seed).normal(size=n)
        upper, lower = envelope(t, window)
        size = 2 * window + 1
        assert np.array_equal(
            upper, maximum_filter1d(t, size=size, mode="nearest"))
        assert np.array_equal(
            lower, minimum_filter1d(t, size=size, mode="nearest"))

    def test_inside_envelope_is_zero(self, rng):
        t = np.sin(np.linspace(0, 6, 40))
        assert lb_keogh(t, t, window=2) == 0.0

    @given(st.integers(min_value=0, max_value=5), st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_lower_bounds_dtw(self, window, seed):
        """The defining property: LB_Keogh never exceeds the true DTW cost
        (L1 variant vs absolute-difference DTW)."""
        r = np.random.default_rng(seed)
        a = r.normal(size=20)
        b = r.normal(size=20)
        bound = lb_keogh(a, b, window, squared=False)
        true = dtw_distance(a, b, window=window)
        assert bound <= true + 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            lb_keogh(np.zeros(5), np.zeros(6), 2)

    def test_precomputed_envelope_matches(self, rng):
        a, t = rng.normal(size=25), rng.normal(size=25)
        env = envelope(t, 3)
        assert lb_keogh(a, t, 3, env=env) == lb_keogh(a, t, 3)


def _trend_trace(rng, beacon_id, offset=0.0, shape="log", n=90, noise=1.0):
    ts = np.arange(n) / 9.0
    if shape == "log":
        vals = -60 - 18 * np.log10(1 + ts) + offset
    else:
        # Opposite trend with strong oscillation: clearly a different beacon.
        vals = -85 + 18 * np.log10(1 + ts) + 6 * np.sin(ts * 2.6) + offset
    vals = vals + rng.normal(0, noise, n)
    return RssiTrace.from_arrays(ts, vals, beacon_id)


class TestSegmentMatcher:
    def test_same_trend_matches_despite_offset(self, rng):
        # Device offsets must cancel (the differentiation step).
        target = _trend_trace(rng, "t")
        near = _trend_trace(rng, "n", offset=-7.0)
        assert SegmentMatcher().match(target, near).matched

    def test_different_trend_rejected(self, rng):
        target = _trend_trace(rng, "t")
        far = _trend_trace(rng, "f", shape="sin")
        assert not SegmentMatcher().match(target, far).matched

    def test_different_sampling_rates_handled(self, rng):
        target = _trend_trace(rng, "t", n=90)
        ts = np.arange(72) / 7.2  # 7.2 Hz candidate
        vals = -64 - 18 * np.log10(1 + ts) + rng.normal(0, 1.0, 72)
        near = RssiTrace.from_arrays(ts, vals, "n")
        assert SegmentMatcher().match(target, near).matched

    def test_lower_bound_only_skips_dtw(self, rng):
        target = _trend_trace(rng, "t")
        far = _trend_trace(rng, "f", shape="sin")
        with_lb = SegmentMatcher(use_lower_bound=True).match(target, far)
        without = SegmentMatcher(use_lower_bound=False).match(target, far)
        assert with_lb.n_dtw_runs <= without.n_dtw_runs
        assert with_lb.matched == without.matched

    def test_short_candidate_rejected(self, rng):
        target = _trend_trace(rng, "t")
        short = RssiTrace.from_arrays([0.0, 0.1], [-60.0, -61.0], "s")
        with pytest.raises(InsufficientDataError):
            SegmentMatcher().match(target, short)

    def test_match_many_preserves_order(self, rng):
        target = _trend_trace(rng, "t")
        cands = [_trend_trace(rng, "a", offset=-3.0),
                 _trend_trace(rng, "b", shape="sin")]
        results = SegmentMatcher().match_many(target, cands)
        assert results[0].matched and not results[1].matched

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SegmentMatcher(segment_len=2)
        with pytest.raises(ConfigurationError):
            SegmentMatcher(threshold=0.0)
        with pytest.raises(ConfigurationError):
            SegmentMatcher(window=-1)

    def test_match_fraction(self, rng):
        target = _trend_trace(rng, "t")
        result = SegmentMatcher().match(target, _trend_trace(rng, "n", -4.0))
        assert 0.0 <= result.match_fraction <= 1.0

    def test_envelope_cache_hits_across_candidates(self, rng):
        from repro import perf

        target = _trend_trace(rng, "t")
        cands = [_trend_trace(rng, f"c{k}", offset=-2.0 * k) for k in range(4)]
        matcher = SegmentMatcher()
        perf.reset()
        serial = [matcher.match(target, c).matched for c in cands]
        hits = perf.snapshot()["counters"].get(
            "segmatch.envelope_cache_hits", 0)
        # Each target segment's envelope is computed for the first candidate
        # and reused for the other three.
        assert hits > 0
        # The cache must not change any verdict.
        batch = [r.matched for r in matcher.match_many(target, cands)]
        assert batch == serial
