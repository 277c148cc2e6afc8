"""Trace sanitization, strict validation, and graceful degradation.

Covers the `repro.robustness` layer plus the satellite regressions that ride
with it: the `trace_windows` infinite loop, the ANF's hard-coded 9 Hz rate
fallback, the path-loss clamp asymmetry, and the Kalman validation message.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel.pathloss import MIN_DISTANCE_M, distance_for_rss, rss_at
from repro.core.anf import AdaptiveNoiseFilter
from repro.core.envaware import trace_windows
from repro.core.estimator import EllipticalEstimator
from repro.core.pipeline import LocBLE
from repro.dtw.segmatch import SegmentMatcher
from repro.errors import (
    ConfigurationError,
    DataQualityError,
    DegenerateGeometryError,
    EstimationError,
    ReproError,
)
from repro.filters.kalman import AdaptiveKalman, ScalarKalman
from repro.robustness import (
    EstimateDiagnostics,
    SanitizationReport,
    check_trace,
    robust_rate_hz,
    sanitize_trace,
)
from repro.sim.simulator import BeaconSpec, Simulator
from repro.types import ImuSample, ImuTrace, RssiSample, RssiTrace
from repro.world.scenarios import scenario
from repro.world.trajectory import l_shape


@pytest.fixture(scope="module")
def session():
    rng = np.random.default_rng(7)
    sc = scenario(1)
    sim = Simulator(sc.floorplan, rng)
    walk = l_shape(sc.observer_start, sc.observer_heading_rad)
    return sim.simulate(walk, [BeaconSpec("b", position=sc.beacon_position)])


def clean_trace(n=40, rate=10.0, base=-60.0):
    ts = np.arange(n) / rate
    vals = base - 0.2 * np.arange(n)
    return RssiTrace.from_arrays(ts, vals)


class TestRobustRate:
    def test_uniform_trace(self):
        assert robust_rate_hz(np.arange(50) / 8.0) == pytest.approx(8.0)

    def test_immune_to_dropout_gap(self):
        ts = np.concatenate([np.arange(20) / 10.0, 10.0 + np.arange(20) / 10.0])
        # Mean rate is dragged down by the 8 s hole; the median rate is not.
        mean_rate = (len(ts) - 1) / (ts[-1] - ts[0])
        assert mean_rate < 4.0
        assert robust_rate_hz(ts) == pytest.approx(10.0)

    def test_duplicates_excluded(self):
        ts = np.repeat(np.arange(10) / 5.0, 3)
        assert robust_rate_hz(ts) == pytest.approx(5.0)

    def test_degenerate(self):
        assert robust_rate_hz(np.array([])) == 0.0
        assert robust_rate_hz(np.array([1.0])) == 0.0
        assert robust_rate_hz(np.full(8, 2.0)) == 0.0


class TestCheckTrace:
    def test_clean_passes(self):
        check_trace(clean_trace())

    def test_empty_allowed_by_default(self):
        check_trace(RssiTrace())

    def test_nonfinite_rssi(self):
        tr = clean_trace()
        vals = tr.values()
        vals[2] = np.nan
        vals[5] = np.inf
        with pytest.raises(DataQualityError, match="2 non-finite"):
            check_trace(RssiTrace.from_arrays(tr.timestamps(), vals))

    def test_nonfinite_timestamp(self):
        ts = clean_trace().timestamps()
        ts[1] = np.nan
        with pytest.raises(DataQualityError, match="non-finite timestamp"):
            check_trace(RssiTrace.from_arrays(ts, clean_trace().values()))

    def test_unsorted(self):
        tr = clean_trace()
        ts = tr.timestamps()
        ts[3], ts[10] = ts[10], ts[3]
        with pytest.raises(DataQualityError, match="not sorted"):
            check_trace(RssiTrace.from_arrays(ts, tr.values()))

    def test_data_quality_is_configuration_error(self):
        # Backward compatibility: existing handlers catching the broad class
        # keep seeing data pathologies.
        assert issubclass(DataQualityError, ConfigurationError)
        assert issubclass(DegenerateGeometryError, EstimationError)


class TestSanitizeTrace:
    def test_clean_trace_untouched(self):
        tr = clean_trace()
        out, rep = sanitize_trace(tr)
        assert rep.clean and not rep.degraded
        assert rep.n_input == rep.n_output == len(tr)
        assert np.array_equal(out.timestamps(), tr.timestamps())
        assert np.array_equal(out.values(), tr.values())
        assert "clean" in rep.summary()

    def test_drops_nonfinite(self):
        tr = clean_trace()
        vals = tr.values()
        vals[0] = np.nan
        vals[3] = -np.inf
        out, rep = sanitize_trace(RssiTrace.from_arrays(tr.timestamps(), vals))
        assert rep.n_nonfinite_dropped == 2
        assert len(out) == len(tr) - 2
        check_trace(out)

    def test_drops_implausible_readings(self):
        tr = clean_trace()
        vals = tr.values()
        vals[1] = -150.0  # below thermal floor
        vals[2] = 40.0  # stronger than any BLE transmitter
        out, rep = sanitize_trace(RssiTrace.from_arrays(tr.timestamps(), vals))
        assert rep.n_implausible_dropped == 2
        assert np.all(out.values() >= -120.0)
        assert np.all(out.values() <= 20.0)

    def test_sorts_out_of_order(self):
        tr = clean_trace()
        ts = tr.timestamps()
        ts[4], ts[9] = ts[9], ts[4]
        out, rep = sanitize_trace(RssiTrace.from_arrays(ts, tr.values()))
        assert not rep.was_sorted and not rep.clean
        assert np.all(np.diff(out.timestamps()) >= 0)

    def test_collapses_duplicates_to_median(self):
        tr = RssiTrace.from_arrays([0.0, 0.1, 0.1, 0.1, 0.2],
                                   [-60.0, -70.0, -62.0, -64.0, -61.0])
        out, rep = sanitize_trace(tr)
        assert rep.n_duplicates_collapsed == 2
        assert len(out) == 3
        assert out.values()[1] == pytest.approx(-64.0)  # median of the three

    def test_detects_dropout_gaps(self):
        ts = np.concatenate([np.arange(20) / 10.0, 8.0 + np.arange(20) / 10.0])
        out, rep = sanitize_trace(
            RssiTrace.from_arrays(ts, np.full(40, -65.0)))
        assert rep.clean  # a gap is degradation, not corruption
        assert rep.degraded
        assert len(rep.dropout_gaps) == 1
        start, end = rep.dropout_gaps[0]
        assert start == pytest.approx(1.9) and end == pytest.approx(8.0)

    def test_rate_anomaly_flagged(self):
        ts = np.arange(10) * 100.0  # one sample every 100 s
        _, rep = sanitize_trace(RssiTrace.from_arrays(ts, np.full(10, -65.0)))
        assert rep.rate_anomaly and rep.degraded

    def test_everything_at_once_yields_checkable_trace(self):
        ts = [0.3, 0.0, 0.1, 0.1, np.nan, 0.2, 0.4]
        vals = [-60.0, np.nan, -150.0, -62.0, -63.0, np.inf, -64.0]
        out, rep = sanitize_trace(RssiTrace.from_arrays(ts, vals))
        check_trace(out)
        assert rep.n_output == len(out)
        assert rep.n_dropped == rep.n_input - rep.n_output


@st.composite
def fuzzed_traces(draw):
    """Clean windows and windows with every flaw sanitizing repairs."""
    n = draw(st.integers(min_value=0, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ts = np.cumsum(rng.exponential(0.125, n))
    vals = rng.normal(-65.0, 8.0, n)
    flaws = draw(st.sets(st.sampled_from(
        ["nan_t", "inf_t", "nan_rssi", "implausible", "swap", "duplicate",
         "bound"])))
    if n >= 2:
        i, j = rng.integers(0, n, 2)
        if "nan_t" in flaws:
            ts[i] = np.nan
        if "inf_t" in flaws:
            ts[j] = np.inf
        if "nan_rssi" in flaws:
            vals[j] = np.nan
        if "implausible" in flaws:
            vals[i] = 35.0
        if "swap" in flaws:
            ts[i], ts[j] = ts[j], ts[i]
        if "duplicate" in flaws:
            ts[j] = ts[i]
        if "bound" in flaws:
            vals[i] = -120.0  # on the closed bound: still plausible
    return RssiTrace.from_arrays(ts, vals, beacon_id="fz")


class TestSanitizeDropCount:
    @given(fuzzed_traces())
    @settings(max_examples=300, deadline=None)
    def test_n_dropped_is_the_sum_of_the_repairs(self, trace):
        """Provenance books ``n_dropped`` as the samples sanitizing
        removed: every one was non-finite, implausible or a collapsed
        duplicate."""
        _out, rep = sanitize_trace(trace)
        assert rep.n_dropped == (rep.n_nonfinite_dropped
                                 + rep.n_implausible_dropped
                                 + rep.n_duplicates_collapsed)


class TestCleanWindowFastPath:
    """Clean windows skip the per-sample repair path; both paths agree."""

    @given(fuzzed_traces())
    @settings(max_examples=300, deadline=None)
    def test_both_paths_agree(self, trace):
        import repro.robustness.sanitize as sanitize_module

        out, rep = sanitize_trace(trace)
        try:
            check_trace(trace)
            strict = None
        except DataQualityError as exc:
            strict = str(exc)
        fast = sanitize_module._clean_arrays
        sanitize_module._clean_arrays = lambda *args: False
        try:
            slow_out, slow_rep = sanitize_trace(trace)
            try:
                check_trace(trace)
                slow_strict = None
            except DataQualityError as exc:
                slow_strict = str(exc)
        finally:
            sanitize_module._clean_arrays = fast
        assert out.samples == slow_out.samples
        assert rep == slow_rep
        assert strict == slow_strict

    def test_clean_window_keeps_its_samples(self):
        tr = clean_trace()
        out, rep = sanitize_trace(tr)
        assert rep.clean and all(a is b for a, b in zip(out, tr))

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                    max_size=80),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_rate_is_the_median_rate(self, ts, rounded):
        ts = np.round(ts, 1) if rounded else np.asarray(ts, dtype=float)
        dt = np.diff(np.sort(ts))
        dt = dt[dt > 0.0]
        want = float(1.0 / np.median(dt)) if dt.size else 0.0
        assert robust_rate_hz(ts) == want


class TestTraceWindowsRegression:
    """Satellite: `window_s <= 0` used to spin forever; single-sample traces
    silently vanished."""

    def test_nonpositive_window_raises(self):
        tr = clean_trace()
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                trace_windows(tr, window_s=bad)

    def test_bad_min_samples_raises(self):
        with pytest.raises(ConfigurationError):
            trace_windows(clean_trace(), min_samples=0)

    def test_single_sample_trace(self):
        tr = RssiTrace([RssiSample(0.0, -60.0)])
        assert trace_windows(tr) == []  # below default min_samples
        wins = trace_windows(tr, min_samples=1)
        assert len(wins) == 1 and wins[0][0] == pytest.approx(-60.0)

    def test_zero_duration_trace_is_one_window(self):
        tr = RssiTrace([RssiSample(1.0, -60.0 - k) for k in range(8)])
        wins = trace_windows(tr, min_samples=6)
        assert len(wins) == 1 and len(wins[0]) == 8

    def test_dirty_trace_rejected(self):
        tr = clean_trace()
        vals = tr.values()
        vals[0] = np.nan
        with pytest.raises(DataQualityError):
            trace_windows(RssiTrace.from_arrays(tr.timestamps(), vals))

    def test_normal_windows_unchanged(self):
        tr = clean_trace(n=40, rate=10.0)
        wins = trace_windows(tr, window_s=2.0, min_samples=6)
        assert len(wins) == 2 and all(len(w) == 20 for w in wins)


class TestAnfRateRegression:
    """Satellite: `fs > 0 else 9.0` could design a filter from a made-up rate."""

    def test_nonfinite_fs_rejected_by_apply(self):
        with pytest.raises(ConfigurationError):
            AdaptiveNoiseFilter().apply(np.zeros(10), float("nan"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_bad_reading_raises_instead_of_poisoning(self, bad):
        # Both ANF stages are recursive: one NaN used to turn 140 of 160
        # outputs non-finite with no error raised.
        vals = np.linspace(-55.0, -75.0, 160)
        vals[20] = bad
        with pytest.raises(DataQualityError, match="at index 20"):
            AdaptiveNoiseFilter().apply(vals, 8.0)


class TestPathLossClampRegression:
    """Satellite: the inverse model now clamps like the forward model."""

    @given(st.floats(min_value=0.001, max_value=30.0),
           st.floats(min_value=-70.0, max_value=-45.0),
           st.floats(min_value=1.2, max_value=4.5))
    def test_roundtrip_clamps_consistently(self, d, gamma, n):
        assert distance_for_rss(rss_at(d, gamma, n), gamma, n) == pytest.approx(
            max(d, MIN_DISTANCE_M), rel=1e-9)

    @given(st.floats(min_value=-110.0, max_value=0.0),
           st.floats(min_value=1.2, max_value=4.5))
    def test_inverse_never_below_clamp(self, rss, n):
        assert distance_for_rss(rss, -59.0, n) >= MIN_DISTANCE_M

    def test_strong_rss_maps_to_clamp_distance(self):
        # -10 dBm at gamma=-59 would invert to ~3 mm without the clamp.
        assert distance_for_rss(-10.0, -59.0, 2.0) == MIN_DISTANCE_M

    def test_array_input_matches_scalar(self):
        rss = np.array([-30.0, -59.0, -80.0])
        arr = distance_for_rss(rss, -59.0, 2.0)
        assert isinstance(arr, np.ndarray)
        for r, a in zip(rss, arr):
            assert a == pytest.approx(distance_for_rss(float(r), -59.0, 2.0))


class TestKalmanValidationRegression:
    """Satellite: check and message now agree (and cover AdaptiveKalman)."""

    def test_zero_process_var_is_legal(self):
        kf = ScalarKalman(process_var=0.0, measurement_var=1.0)
        out = kf.filter([1.0, 1.2, 0.9, 1.1])
        assert np.all(np.isfinite(out))
        AdaptiveKalman(process_var=0.0, initial_measurement_var=1.0)

    def test_messages_match_checks(self):
        with pytest.raises(ConfigurationError,
                           match="measurement variance > 0"):
            ScalarKalman(process_var=0.1, measurement_var=0.0)
        with pytest.raises(ConfigurationError,
                           match="process variance must be >= 0"):
            ScalarKalman(process_var=-0.1, measurement_var=1.0)

    def test_adaptive_kalman_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveKalman(process_var=-1.0)
        with pytest.raises(ConfigurationError):
            AdaptiveKalman(initial_measurement_var=0.0)
        with pytest.raises(ConfigurationError, match="finite"):
            AdaptiveKalman(process_var=float("nan"))

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            ScalarKalman(process_var=float("inf"), measurement_var=1.0)
        with pytest.raises(ConfigurationError, match="finite"):
            ScalarKalman(process_var=0.1, measurement_var=float("nan"))


class TestPipelinePolicies:
    def test_invalid_sanitize_policy(self):
        with pytest.raises(ConfigurationError, match="sanitize"):
            LocBLE(sanitize="yolo")

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"),
                                     1e-20, 1e-9])
    def test_invalid_batch_s(self, bad):
        """`batch_s <= 0` made EnvAware's segmentation loop forever and
        `nan` silently skipped it; a `batch_s` below the float spacing at
        `t` could not advance the segmentation clock either."""
        with pytest.raises(ConfigurationError, match="batch_s"):
            LocBLE(batch_s=bad)

    def test_strict_rejects_dirty_trace(self, session):
        tr = session.rssi_traces["b"]
        vals = tr.values()
        vals[3] = np.nan
        bad = RssiTrace.from_arrays(tr.timestamps(), vals)
        with pytest.raises(DataQualityError):
            LocBLE().estimate(bad, session.observer_imu.trace)

    def test_repair_mode_estimates_dirty_trace(self, session):
        tr = session.rssi_traces["b"]
        ts = tr.timestamps().copy()
        vals = tr.values().copy()
        vals[3] = np.nan
        ts[10], ts[20] = ts[20], ts[10]
        bad = RssiTrace.from_arrays(ts, vals)
        est = LocBLE(sanitize="repair").estimate(bad, session.observer_imu.trace)
        assert np.isfinite(est.position.x)
        assert isinstance(est.diagnostics, EstimateDiagnostics)
        assert est.diagnostics.full_pipeline
        rep = est.diagnostics.sanitization
        assert isinstance(rep, SanitizationReport)
        assert rep.n_nonfinite_dropped == 1 and not rep.was_sorted

    def test_repair_matches_clean_estimate_on_clean_data(self, session):
        tr = session.rssi_traces["b"]
        imu = session.observer_imu.trace
        strict = LocBLE().estimate(tr, imu)
        repaired = LocBLE(sanitize="repair").estimate(tr, imu)
        assert repaired.position.x == pytest.approx(strict.position.x)
        assert repaired.position.y == pytest.approx(strict.position.y)


class TestGracefulDegradation:
    def test_robust_on_clean_data_matches_estimate(self, session):
        tr = session.rssi_traces["b"]
        imu = session.observer_imu.trace
        est = LocBLE().estimate(tr, imu)
        robust = LocBLE().estimate_robust(tr, imu)
        assert robust.position.x == pytest.approx(est.position.x)
        assert robust.diagnostics.full_pipeline

    def test_all_nan_trace_degrades_to_no_data(self, session):
        tr = session.rssi_traces["b"]
        bad = RssiTrace.from_arrays(tr.timestamps(), np.full(len(tr), np.nan))
        est = LocBLE().estimate_robust(bad, session.observer_imu.trace)
        assert est.confidence == 0.0
        assert est.diagnostics.fallback == "no-data"
        assert est.diagnostics.failure is not None

    def test_stationary_observer_degrades_to_range_only(self, session):
        still = ImuTrace([
            ImuSample(t, 0.0, 0.0, 0.0) for t in np.arange(0, 5, 0.02)
        ])
        est = LocBLE().estimate_robust(session.rssi_traces["b"], still)
        assert est.confidence == 0.0
        assert est.diagnostics.fallback == "range-only"
        assert np.isfinite(est.position.x) and est.position.norm() > 0
        # The fallback range sits within BLE's usable sensing envelope.
        assert est.position.norm() <= 30.0

    def test_too_few_samples_degrades(self, session):
        tiny = RssiTrace(session.rssi_traces["b"].samples[:4])
        est = LocBLE().estimate_robust(tiny, session.observer_imu.trace)
        assert est.confidence == 0.0
        assert est.diagnostics.fallback == "range-only"

    def test_estimate_series_skips_degenerate_prefixes(self, session):
        tr = session.rssi_traces["b"]
        imu = session.observer_imu.trace
        times = [0.05, 2.0, 4.0, tr.timestamps()[-1] + 0.1]
        out = LocBLE().estimate_series(tr, imu, times)
        assert len(out) >= 1
        assert all(np.isfinite(e.position.x) for _, e in out)


# -- property tests: entry points never crash un-diagnosed ------------------

finite_or_dirty = (
    st.floats(min_value=-200.0, max_value=100.0, allow_nan=False,
              allow_infinity=False, allow_subnormal=False)
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
)

dirty_timestamp = (
    st.floats(min_value=-5.0, max_value=20.0, allow_nan=False,
              allow_infinity=False, allow_subnormal=False)
    | st.just(float("nan"))
)

trace_strategy = st.lists(
    st.tuples(dirty_timestamp, finite_or_dirty),
    min_size=0, max_size=40,
).map(lambda pairs: RssiTrace(
    [RssiSample(float(t), float(v)) for t, v in pairs]))


def walking_imu():
    # A plausible gait signal so motion tracking has something to chew on.
    ts = np.arange(0.0, 6.0, 0.02)
    accel = 1.2 * np.abs(np.sin(2.0 * math.pi * 1.8 * ts))
    return ImuTrace([
        ImuSample(float(t), float(a), 0.0, 0.0) for t, a in zip(ts, accel)
    ])


class TestNeverCrashUndiagnosed:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace_strategy)
    def test_sanitize_always_yields_checkable_trace(self, trace):
        out, rep = sanitize_trace(trace)
        check_trace(out)  # must never raise on sanitized output
        assert rep.n_output == len(out) <= rep.n_input

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace_strategy)
    def test_trace_windows_diagnosed(self, trace):
        try:
            wins = trace_windows(trace, window_s=1.0, min_samples=2)
        except ReproError:
            return
        assert all(isinstance(w, np.ndarray) for w in wins)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace_strategy)
    def test_pipeline_estimate_diagnosed(self, trace):
        imu = walking_imu()
        try:
            est = LocBLE().estimate(trace, imu)
        except ReproError:
            return
        assert np.isfinite(est.position.x)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace_strategy)
    def test_estimate_robust_never_raises_on_data(self, trace):
        est = LocBLE().estimate_robust(trace, walking_imu())
        assert est.diagnostics is not None
        if not est.diagnostics.full_pipeline:
            assert est.confidence == 0.0

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace_strategy)
    def test_segment_matcher_diagnosed(self, trace):
        target = clean_trace(n=60, rate=10.0)
        # Give the target a visible trend so preprocessing succeeds.
        vals = -60.0 + 8.0 * np.sin(np.linspace(0, 3 * math.pi, 60))
        target = RssiTrace.from_arrays(target.timestamps(), vals)
        matcher = SegmentMatcher()
        try:
            result = matcher.match(target, trace)
        except ReproError:
            return
        assert 0 <= result.n_matched <= result.n_segments

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(finite_or_dirty, min_size=0, max_size=30))
    def test_estimator_fit_diagnosed(self, rss):
        n = len(rss)
        p = -np.linspace(0.0, 3.0, n) if n else np.empty(0)
        q = np.zeros(n)
        try:
            fit = EllipticalEstimator().fit(p, q, np.asarray(rss))
        except ReproError:
            return
        assert np.isfinite(fit.position.x)


# -- property tests: the streaming service layer -----------------------------

service_fault_plan = st.lists(
    st.sampled_from(["ok", "degenerate", "failed", "nodata"]),
    min_size=1, max_size=12,
)


def _scripted_service(script):
    from tests.stubs import ScriptedPipeline, one_shard

    from repro.service import ServiceConfig, SessionConfig
    cfg = ServiceConfig(session=SessionConfig(solve_period_s=1.0))
    return one_shard(cfg, lambda: ScriptedPipeline(list(script)))


class TestServiceNeverCrashUndiagnosed:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace_strategy, st.integers(min_value=1, max_value=8))
    def test_service_never_raises_untyped_on_dirty_scans(self, trace, steps):
        # Arbitrary dirty scans through the REAL repair-mode pipeline: the
        # service must absorb every composition without an untyped escape.
        from tests.stubs import one_shard

        svc = one_shard()
        imu = walking_imu()
        try:
            svc.ingest_scans(
                RssiSample(s.timestamp, s.rssi, "b", s.channel)
                for s in trace.samples
            )
            svc.ingest_imu(imu.samples)
            for k in range(1, steps + 1):
                svc.tick(float(k))
        except ReproError as exc:  # typed escapes are also forbidden here
            raise AssertionError(
                f"service raised on data: {type(exc).__name__}: {exc}"
            ) from exc
        stats = svc.stats()
        assert stats["sessions"] in (0, 1)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(service_fault_plan, st.integers(min_value=1, max_value=6))
    def test_checkpoint_resume_bit_identical_any_fault_plan(
            self, plan, cut):
        # For ANY solve-outcome schedule, killing the service mid-stream and
        # restoring from its JSON checkpoint must continue bit-identically.
        import json

        from tests.stubs import ScriptedPipeline
        from tests.test_service import feed_service

        from repro.fleet import TrackingFleet

        steps = len(plan) + 4
        cut = min(cut, steps - 1)
        full = _scripted_service(plan)
        part = _scripted_service(plan)
        for k in range(1, cut + 1):
            feed_service(full, float(k))
            feed_service(part, float(k))
        sessions = part.workers[0].service.sessions
        calls = sessions["a"].pipeline.calls if sessions else 0
        rest = plan[min(calls, len(plan) - 1):] or plan[-1:]
        resumed = TrackingFleet.restore(
            json.loads(json.dumps(part.checkpoint())),
            pipeline_factory=lambda: ScriptedPipeline(rest),
        )
        for k in range(cut + 1, steps + 1):
            a = feed_service(full, float(k))
            b = feed_service(resumed, float(k))
            assert sorted(a) == sorted(b)
            for bid in a:
                assert (a[bid].state, a[bid].breaker_state, a[bid].track,
                        a[bid].fix_age_s, a[bid].buffered) == (
                    b[bid].state, b[bid].breaker_state, b[bid].track,
                    b[bid].fix_age_s, b[bid].buffered)
