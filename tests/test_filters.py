"""Tests for the signal-processing substrate (Butterworth, Kalman, smoothing)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from repro.core.anf import AdaptiveNoiseFilter, AnfState
from repro.errors import ConfigurationError
from repro.filters.butterworth import (
    ButterworthLowPass,
    butter_lowpass_sos,
    sos_filter,
)
from repro.filters.kalman import (
    AdaptiveKalman,
    AkfState,
    ScalarKalman,
    _numpy_sum,
    adaptive_kalman_fuse,
)
from repro.filters.smoothing import differentiate, moving_average, moving_median
from tests.stubs import recording


# -- retained references ------------------------------------------------------
# The NumPy-scalar filter loops that the float loops in repro.filters
# replaced. The rewrite promises bit-identical output, so the tests below
# (and the ``anf_apply`` entry of benchmarks/bench_perf_hotpaths.py)
# compare against these with array_equal.


def reference_sos_filter(sos, x):
    """DF2T cascade looping over an ndarray (NumPy-scalar arithmetic)."""
    sos = np.asarray(sos, dtype=float)
    if sos.ndim != 2 or sos.shape[1] != 6:
        raise ConfigurationError("sos must have shape (n_sections, 6)")
    y = np.asarray(x, dtype=float).copy()
    for b0, b1, b2, a0, a1, a2 in sos:
        if abs(a0 - 1.0) > 1e-12:
            b0, b1, b2, a1, a2 = b0 / a0, b1 / a0, b2 / a0, a1 / a0, a2 / a0
        z1 = z2 = 0.0
        out = np.empty_like(y)
        for i, xi in enumerate(y):
            yi = b0 * xi + z1
            z1 = b1 * xi + z2 - a1 * yi
            z2 = b2 * xi - a2 * yi
            out[i] = yi
        y = out
    return y


class ReferenceAdaptiveKalman(AdaptiveKalman):
    """The AKF step taking its window statistics with np.mean/np.std."""

    def step(self, z, control=0.0):
        if not self._initialized:
            self.x = z
            self.p = self._r
            self._initialized = True
            return self.x
        self.x += control
        p_prior = self.p + self.process_var
        innovation = z - self.x
        self._innovations.append(innovation)
        if len(self._innovations) > self.window:
            self._innovations.pop(0)
        if len(self._innovations) >= 3:
            est = float(np.mean(np.square(self._innovations))) - p_prior
            lo = 0.1 * self.initial_measurement_var
            hi = 25.0 * self.initial_measurement_var
            self._r = min(max(est, lo), hi)
        k = p_prior / (p_prior + self._r)
        if len(self._innovations) >= 4:
            inn = np.asarray(self._innovations)
            spread = float(np.std(inn)) + 1e-9
            significance = abs(float(np.mean(inn))) / (
                spread / math.sqrt(len(inn))
            )
            k *= min(1.0, significance / 3.0)
        self.x += k * innovation
        self.p = (1.0 - k) * p_prior
        return self.x


def reference_adaptive_kalman_fuse(raw, smoothed, **akf_kwargs):
    """BF+AKF fusion over ndarray elements through the reference AKF."""
    raw = np.asarray(raw, dtype=float)
    smoothed = np.asarray(smoothed, dtype=float)
    if raw.shape != smoothed.shape:
        raise ConfigurationError("raw and smoothed signals must align")
    akf = ReferenceAdaptiveKalman(**akf_kwargs)
    out = np.empty_like(raw)
    prev_s = None
    for i, (z, s) in enumerate(zip(raw, smoothed)):
        control = 0.0 if prev_s is None else s - prev_s
        out[i] = akf.step(z, control=control)
        prev_s = s
    return out


class TestFloatLoopBitIdentity:
    """The float-loop filters reproduce the NumPy-scalar ones bit for bit."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_summation_matches_numpy_reduce(self, n):
        # Lengths 1-7 take NumPy's plain loop, 8-16 its eight accumulators.
        rng = np.random.default_rng(n)
        for _ in range(200):
            xs = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
            assert _numpy_sum(xs.tolist()) == np.add.reduce(xs)

    @given(n=st.integers(min_value=0, max_value=400),
           window=st.integers(min_value=2, max_value=16),
           log_scale=st.floats(min_value=-3.0, max_value=3.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_filters_match_references(self, n, window, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        level = np.where(np.arange(n) < n // 2, -60.0, -75.0)
        raw = level + rng.normal(0.0, scale, n)
        sos = butter_lowpass_sos(6, 0.8, 8.0)
        smoothed = reference_sos_filter(sos, raw)
        assert np.array_equal(sos_filter(sos, raw), smoothed)
        got = adaptive_kalman_fuse(raw, smoothed, window=window)
        want = reference_adaptive_kalman_fuse(raw, smoothed, window=window)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestButterworthDesign:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8])
    def test_matches_scipy(self, order):
        """Our from-scratch design must agree with scipy's to numerical noise."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=256)
        mine = sos_filter(butter_lowpass_sos(order, 0.8, 9.0), x)
        ref = sps.sosfilt(sps.butter(order, 0.8, fs=9.0, output="sos"), x)
        assert np.max(np.abs(mine - ref)) < 1e-10

    def test_dc_gain_unity(self):
        sos = butter_lowpass_sos(6, 0.8, 9.0)
        y = sos_filter(sos, np.ones(500))
        assert y[-1] == pytest.approx(1.0, abs=1e-6)

    def test_cutoff_is_3db_point(self):
        sos = butter_lowpass_sos(6, 1.0, 10.0)
        t = np.arange(4000) / 10.0
        x = np.sin(2 * np.pi * 1.0 * t)
        y = sos_filter(sos, x)
        gain = np.max(np.abs(y[2000:])) / 1.0
        assert gain == pytest.approx(10 ** (-3 / 20), abs=0.03)

    def test_high_frequency_heavily_attenuated(self):
        sos = butter_lowpass_sos(6, 0.8, 9.0)
        t = np.arange(2000) / 9.0
        x = np.sin(2 * np.pi * 3.5 * t)  # well above cutoff
        y = sos_filter(sos, x)
        assert np.max(np.abs(y[1000:])) < 0.01

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            butter_lowpass_sos(0, 1.0, 10.0)
        with pytest.raises(ConfigurationError):
            butter_lowpass_sos(4, 6.0, 10.0)  # above Nyquist
        with pytest.raises(ConfigurationError):
            sos_filter(np.ones((2, 5)), [1.0, 2.0])


class TestButterworthLowPass:
    def test_no_startup_ringing(self):
        bf = ButterworthLowPass()
        x = np.full(50, -70.0)
        y = bf.apply(x)
        assert np.max(np.abs(y - (-70.0))) < 1e-3

    def test_empty_input(self):
        assert ButterworthLowPass().apply([]).size == 0

    def test_causal_delay_visible_on_step(self):
        """The BF lag the paper's Fig. 4 shows: a causal 6th-order filter
        trails a step change."""
        bf = ButterworthLowPass(order=6, cutoff_hz=0.8, fs_hz=9.0)
        x = np.concatenate([np.full(60, -80.0), np.full(60, -70.0)])
        y = bf.apply(x)
        # Just after the step the output is still far from the new level.
        assert y[63] < -75.0
        # Eventually it converges.
        assert y[-1] == pytest.approx(-70.0, abs=0.5)

    def test_smooths_noise(self, rng):
        bf = ButterworthLowPass()
        x = -70.0 + rng.normal(0, 3.0, 300)
        y = bf.apply(x)
        assert np.std(y[50:]) < 0.5 * np.std(x[50:])


class TestScalarKalman:
    def test_first_sample_initialises(self):
        kf = ScalarKalman(process_var=0.1, measurement_var=1.0)
        assert kf.step(-70.0) == -70.0

    def test_converges_to_constant(self):
        kf = ScalarKalman(process_var=0.001, measurement_var=4.0)
        rng = np.random.default_rng(0)
        out = kf.filter(-70.0 + rng.normal(0, 2, 500))
        assert abs(out[-1] + 70.0) < 0.5

    def test_control_input_shifts_prediction(self):
        kf = ScalarKalman(process_var=0.01, measurement_var=100.0)
        kf.step(0.0)
        kf.p = 1e-6  # certain state: the update should barely correct
        v = kf.step(0.0, control=5.0)
        assert v > 4.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScalarKalman(process_var=-1.0, measurement_var=1.0)
        with pytest.raises(ConfigurationError):
            ScalarKalman(process_var=0.1, measurement_var=0.0)


class TestAdaptiveKalman:
    def test_r_adapts_upward_in_noise(self):
        akf = AdaptiveKalman(initial_measurement_var=1.0)
        rng = np.random.default_rng(0)
        for z in rng.normal(0, 6.0, 100):
            akf.step(z)
        assert akf._r > 2.0

    def test_r_clamped(self):
        akf = AdaptiveKalman(initial_measurement_var=1.0)
        rng = np.random.default_rng(0)
        for z in rng.normal(0, 100.0, 200):
            akf.step(z)
        assert akf._r <= 25.0

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveKalman(window=1)


class TestAkfFusion:
    def test_more_responsive_than_bf_alone(self):
        """The claim of Fig. 4: BF+AKF reacts to a step faster than BF."""
        rng = np.random.default_rng(1)
        x = np.concatenate([np.full(80, -70.0), np.full(80, -80.0)])
        x += rng.normal(0, 2.0, 160)
        bf = ButterworthLowPass().apply(x)
        fused = adaptive_kalman_fuse(x, bf)
        # Integrated tracking error after the step must be lower for fused.
        true = np.concatenate([np.full(80, -70.0), np.full(80, -80.0)])
        err_bf = np.sum(np.abs(bf[80:100] - true[80:100]))
        err_fused = np.sum(np.abs(fused[80:100] - true[80:100]))
        assert err_fused < err_bf

    def test_smoother_than_raw(self):
        rng = np.random.default_rng(2)
        x = -70.0 + rng.normal(0, 3.0, 300)
        bf = ButterworthLowPass().apply(x)
        fused = adaptive_kalman_fuse(x, bf)
        assert np.std(np.diff(fused)) < np.std(np.diff(x))

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            adaptive_kalman_fuse([1.0, 2.0], [1.0])


class TestSmoothing:
    def test_moving_average_constant(self):
        x = np.full(20, 3.0)
        assert np.allclose(moving_average(x, 5), 3.0)

    def test_moving_average_edges_unbiased(self):
        # Shrinking windows at the edges: first output equals the mean of
        # the first half-window, not a zero-padded value.
        x = np.arange(10.0)
        y = moving_average(x, 5)
        assert y[0] == pytest.approx(np.mean(x[:3]))
        assert y[-1] == pytest.approx(np.mean(x[-3:]))

    def test_moving_average_window_one(self):
        x = np.array([1.0, 5.0, 2.0])
        assert np.array_equal(moving_average(x, 1), x)

    def test_moving_median_rejects_spikes(self):
        x = np.full(21, 1.0)
        x[10] = 100.0
        y = moving_median(x, 5)
        assert y[10] == 1.0

    def test_differentiate(self):
        assert np.array_equal(differentiate([1.0, 3.0, 6.0]), [2.0, 3.0])

    def test_differentiate_removes_offsets(self):
        # The DTW preprocessing property: constant device offsets vanish.
        x = np.array([1.0, 2.0, 4.0, 7.0])
        assert np.array_equal(differentiate(x), differentiate(x + 11.0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            moving_average([1.0], 0)
        with pytest.raises(ConfigurationError):
            differentiate([1.0])

    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=50)
    def test_moving_average_bounded_by_extremes(self, xs, window):
        y = moving_average(xs, window)
        assert np.all(y >= min(xs) - 1e-9)
        assert np.all(y <= max(xs) + 1e-9)


# -- ANF as a stream ----------------------------------------------------------

ANF_CONFIGS = {
    "butterworth+akf": {},
    "butterworth-only": {"use_akf": False},
    "akf-only": {"use_butterworth": False},
}


def _rss(n, seed):
    rng = np.random.default_rng(seed)
    level = np.where(np.arange(n) < n // 2, -62.0, -71.0)
    return level + rng.normal(0.0, 3.0, n)


def reference_anf(anf, values, fs_hz):
    """The ANF as whole-signal filters: ``ButterworthLowPass.apply`` (or
    the moving-average fallback), then the stateless AKF fusion."""
    if values.size < 6:
        return values.copy()
    smoothed = values
    if anf.use_butterworth:
        cutoff = min(0.8, 0.4 * fs_hz)
        if values.size >= 3.0 * fs_hz / cutoff:
            smoothed = ButterworthLowPass(6, cutoff, fs_hz).apply(values)
        else:
            window = max(3, int(round(fs_hz / (2.0 * cutoff))))
            smoothed = moving_average(values, window)
    if not anf.use_akf:
        return smoothed
    trend = smoothed if anf.use_butterworth else values * 0.0
    return adaptive_kalman_fuse(values, trend, process_var=0.05,
                                initial_measurement_var=9.0)


class TestAnfStream:
    """ANF advanced over a stream equals ANF over the whole signal."""

    @pytest.mark.parametrize("config", sorted(ANF_CONFIGS))
    @given(n=st.integers(min_value=0, max_value=240),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_from_rest_advance_is_apply(self, config, n, seed):
        # Short n takes the moving-average fallback (or passes through).
        anf = AdaptiveNoiseFilter(**ANF_CONFIGS[config])
        values = _rss(n, seed)
        out, state = anf.apply(values, 8.0, state=AnfState())
        assert np.array_equal(out, reference_anf(anf, values, 8.0))
        assert np.array_equal(out, anf.apply(values, 8.0))
        fallback = n < 6 or (anf.use_butterworth and n < 30)
        assert (state is None) == fallback

    @pytest.mark.parametrize("config", sorted(ANF_CONFIGS))
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_any_split_is_one_advance(self, config, data, seed):
        anf = AdaptiveNoiseFilter(**ANF_CONFIGS[config])
        values = _rss(200, seed)
        # The first chunk starts from rest, so it must take the full path.
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=30, max_value=200), max_size=6)))
        whole, whole_state = anf.apply(values, 8.0, state=AnfState())
        pieces, state = [], AnfState()
        for lo, hi in zip([0] + cuts, cuts + [200]):
            out, state = anf.apply(values[lo:hi], 8.0, state=state)
            pieces.append(out)
        assert np.array_equal(np.concatenate(pieces), whole)
        assert state.akf == whole_state.akf
        assert (state.zi is None and whole_state.zi is None) or \
            np.array_equal(state.zi, whole_state.zi)

    def test_chunked_filters_match_whole(self):
        sos = butter_lowpass_sos(6, 0.8, 8.0)
        x = _rss(90, 3)
        zi = np.zeros((len(sos), 2))
        y1, zi = sos_filter(sos, x[:41], zi)
        y2, zi = sos_filter(sos, x[41:], zi)
        assert np.array_equal(np.concatenate([y1, y2]), sos_filter(sos, x))
        raw, smooth = x, sos_filter(sos, x)
        f1, akf = adaptive_kalman_fuse(raw[:7], smooth[:7], state=AkfState())
        f2, _ = adaptive_kalman_fuse(raw[7:], smooth[7:], state=akf)
        assert np.array_equal(np.concatenate([f1, f2]),
                              adaptive_kalman_fuse(raw, smooth))


def _resets(fn):
    """The ``pipeline.anf_resets`` reasons signalled while ``fn`` runs."""
    with recording() as sink:
        result = fn()
    return result, [e.fields["reason"]
                    for e in sink.named("pipeline.anf_resets")]


class TestAnfStreamResets:
    """Each reset rule filters the window from rest, with one signal."""

    ts = np.arange(200) / 8.0
    values = _rss(200, 7)

    def _carried(self):
        anf = AdaptiveNoiseFilter()
        (_, stream), reasons = _resets(lambda: anf.stream(
            self.ts[:160], self.values[:160], 8.0, None))
        assert reasons == ["no-state"]
        return anf, stream

    def test_window_sliding_on_continues_the_stream(self):
        anf, stream = self._carried()
        (out, nxt), reasons = _resets(lambda: anf.stream(
            self.ts[16:176], self.values[16:176], 8.0, stream))
        assert reasons == []
        whole = anf.apply(self.values[:176], 8.0)
        assert np.array_equal(out, whole[16:])
        assert np.array_equal(nxt.t, self.ts[16:176])

    def test_straggler_behind_the_frontier(self):
        anf, stream = self._carried()
        ts = np.insert(self.ts[16:176], 100, self.ts[115] + 0.01)
        values = np.insert(self.values[16:176], 100, -65.0)
        (out, _), reasons = _resets(lambda: anf.stream(
            ts, values, 8.0, stream))
        assert reasons == ["prefix"]
        assert np.array_equal(out, anf.apply(values, 8.0))

    def test_changed_reading_behind_the_frontier(self):
        anf, stream = self._carried()
        values = self.values[16:176].copy()
        values[50] += 1.0  # a duplicate collapsed into it, say
        (_, _), reasons = _resets(lambda: anf.stream(
            self.ts[16:176], values, 8.0, stream))
        assert reasons == ["prefix"]

    def test_rate_band_exit(self):
        anf, stream = self._carried()
        # Within the band the carried design stays; outside it resets.
        (_, kept), reasons = _resets(lambda: anf.stream(
            self.ts[16:176], self.values[16:176], 8.3, stream))
        assert reasons == [] and kept.fs_hz == 8.0
        (out, moved), reasons = _resets(lambda: anf.stream(
            self.ts[16:176], self.values[16:176], 8.5, stream))
        assert reasons == ["rate-band"] and moved.fs_hz == 8.5
        assert np.array_equal(out, anf.apply(self.values[16:176], 8.5))

    def test_environment_restart(self):
        anf, stream = self._carried()
        (out, _), reasons = _resets(lambda: anf.stream(
            self.ts[120:176], self.values[120:176], 8.0, stream,
            restart=True))
        assert reasons == ["env-restart"]
        assert np.array_equal(out, anf.apply(self.values[120:176], 8.0))

    def test_short_window_carries_nothing(self):
        anf, stream = self._carried()
        (out, nxt), reasons = _resets(lambda: anf.stream(
            self.ts[150:170], self.values[150:170], 8.0, stream))
        assert reasons == ["short-window"] and nxt is None
        assert np.array_equal(out, anf.apply(self.values[150:170], 8.0))

    def test_stream_round_trips_through_json(self):
        anf, stream = self._carried()
        back = anf.restore_stream(json.loads(json.dumps(stream.to_dict())))
        assert back.to_dict() == stream.to_dict()
        a, _ = anf.stream(self.ts[16:176], self.values[16:176], 8.0, stream)
        b, _ = anf.stream(self.ts[16:176], self.values[16:176], 8.0, back)
        assert np.array_equal(a, b)


def test_session_window_is_one_stream_over_its_samples():
    """After N solves, a session's filtered window equals one from-rest
    pass over every sample its stream has seen since its first solve."""
    from repro.core.estimator import fit_batch
    from repro.service.session import ImuTick, SessionConfig, TrackingSession
    from repro.sim.soak import simulate_walk
    from repro.types import ImuTrace

    rec = simulate_walk(1, np.random.default_rng(3), 40.0, ["a"])
    scans = rec.rssi_traces["a"].samples
    imu = ImuTrace(rec.observer_imu.trace.samples)
    session = TrackingSession("a", SessionConfig(window_s=20.0))
    windows = []

    def run():
        for k in range(1, 41):
            t = float(k)
            session.ingest([s for s in scans if t - 1.0 <= s.timestamp < t])
            pending = session.begin_step(t, ImuTick(imu, t))
            if pending is not None:
                windows.append(pending.prepared.ctx)
                fit = fit_batch([pending.request], return_exceptions=True)[0]
                session.resolve_solve(pending, fit)
            session.finish_step(t)

    _, reasons = _resets(run)
    # Windows too short for the Butterworth path carry no stream; the
    # first long enough starts it, and nothing resets it after that.
    assert set(reasons[:-1]) <= {"short-window"} and reasons[-1] == "no-state"
    streamed = [w for w in windows if w.anf_stream is not None]
    assert len(streamed) >= 10
    first, last = streamed[0], streamed[-1]
    t0, t1 = first.anf_stream.t[0], last.anf_stream.t[-1]
    seen = np.array([s.rssi for s in scans if t0 <= s.timestamp <= t1])
    once = AdaptiveNoiseFilter().apply(seen, first.anf_stream.fs_hz)
    assert np.array_equal(last.matched_rss, once[-len(last.matched_rss):])
