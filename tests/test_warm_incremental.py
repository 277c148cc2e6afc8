"""Tests for the warm-start and batched solver stack.

Covers warm-start acceptance and rejection at the estimator,
``fit_batch``'s bit-identity contract with the sequential loop, and the
service's batched tick dispatch with warm state carried across
checkpoints.
"""

import contextlib
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.channel.pathloss import rss_at
from repro.core import estimator
from repro.core.estimator import (
    DEFAULT_N_GRID,
    WARM_BLOWUP,
    WARM_FLOOR_DB,
    EllipticalEstimator,
    FitRequest,
    WarmStartState,
    fit_batch,
)
from repro.errors import DegenerateGeometryError, ReproError
from repro.sim.faults import inject_spikes
from repro.types import RssiTrace, Vec2
from tests.stubs import recording


def _l_walk(n=40, leg1=2.5, leg2=2.0):
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


def _assert_fits_identical(a, b):
    """Bitwise equality of everything a FitResult reports."""
    assert a.position.x == b.position.x and a.position.y == b.position.y
    assert a.n == b.n and a.gamma == b.gamma and a.epsilon == b.epsilon
    assert np.array_equal(a.residuals, b.residuals)
    # A linearised fit computes no covariance: its std is NaN.
    assert (a.position_std == b.position_std
            or math.isnan(a.position_std) and math.isnan(b.position_std))
    assert a.cov_status == b.cov_status
    assert a.solver == b.solver
    assert a.warm_started == b.warm_started
    if a.warm is None or b.warm is None:
        assert a.warm is b.warm
    else:
        assert a.warm.to_dict() == b.warm.to_dict()


class TestWarmStartFastPath:
    TRUE = (4.0, 3.0)

    def _cold(self, noise=1.0, seed=3):
        p, q = _l_walk()
        rng = np.random.default_rng(seed)
        rss = _rss_for(self.TRUE, p, q, noise=noise, rng=rng)
        est = EllipticalEstimator()
        return est, p, q, rss, est.fit(p, q, rss)

    def test_cold_fit_emits_warm_state(self):
        _est, p, _q, _rss, cold = self._cold()
        assert cold.warm is not None
        assert not cold.warm_started
        assert cold.warm.n == cold.n
        assert cold.warm.n_rows == len(p)
        assert cold.warm.use_q is True

    def test_warm_fit_engages_and_agrees_with_cold(self):
        est, p, q, rss, cold = self._cold()
        rng = np.random.default_rng(17)
        rss2 = rss + rng.normal(0.0, 0.4, rss.shape)
        warm_res = est.fit(p, q, rss2, warm=cold.warm)
        cold_res = est.fit(p, q, rss2)
        assert warm_res.warm_started and warm_res.solver == "warm-start"
        assert not cold_res.warm_started
        # Warm-path accuracy: same optimum to solver tolerance.
        assert abs(warm_res.position.x - cold_res.position.x) < 0.3
        assert abs(warm_res.position.y - cold_res.position.y) < 0.3
        assert warm_res.n == pytest.approx(cold_res.n, abs=0.15)
        assert warm_res.position.distance_to(Vec2(*self.TRUE)) < 1.5

    def test_warm_state_json_round_trip_is_bit_identical(self):
        _est, _p, _q, _rss, cold = self._cold()
        d = json.loads(json.dumps(cold.warm.to_dict()))
        restored = WarmStartState.from_dict(d)
        assert restored == cold.warm  # frozen dataclass: field-exact

    def test_stale_warm_rejected_and_cold_rerun_bit_identical(self):
        """A warm state whose residual scale the new window blows past is
        rejected — and the result must equal a plain cold fit bitwise."""
        est, p, q, rss, cold = self._cold(noise=0.5)
        # Simulate an environment change with sim.faults: heavy RSS spikes
        # push the warm refit's RMSE far beyond the acceptance limit.
        trace = RssiTrace.from_arrays(np.arange(len(rss)) / 9.0, rss, "b")
        spiked = inject_spikes(trace, np.random.default_rng(5),
                               spike_rate=0.5, spike_db=25.0)
        rss_bad = spiked.values()
        before = perf.counter_value("solver.warm_rejected")
        with recording() as sink:
            warm_res = est.fit(p, q, rss_bad, warm=cold.warm)
        after = perf.counter_value("solver.warm_rejected")
        events = sink.named("solver.warm_rejected")
        assert not warm_res.warm_started
        assert after - before == 1
        assert len(events) == 1  # counter and event at the same site
        assert events[0].fields["reason"] == "residual blow-up"
        _assert_fits_identical(warm_res, est.fit(p, q, rss_bad))

    def test_gradual_environment_change_tracked_warm(self):
        """A real environment change the refinement can follow is absorbed
        by the warm path — the guard only rejects residual blow-ups."""
        est, p, q, rss, cold = self._cold(noise=0.5)
        rng = np.random.default_rng(29)
        rss_new = _rss_for(self.TRUE, p, q, gamma=-66.0, n=3.1,
                           noise=0.5, rng=rng)
        moved = est.fit(p, q, rss_new, warm=cold.warm)
        assert moved.warm_started
        assert moved.rss_rmse < max(WARM_BLOWUP * cold.warm.rss_rmse,
                                    WARM_FLOOR_DB)

    def test_recovers_after_rejection(self):
        """Diverge-and-recover: the rejected tick's cold re-fit re-seeds
        the chain, so the next tick warm-starts again."""
        est, p, q, rss, cold = self._cold(noise=0.5)
        rng = np.random.default_rng(29)
        trace = RssiTrace.from_arrays(np.arange(len(rss)) / 9.0, rss, "b")
        spiked = inject_spikes(trace, rng, spike_rate=0.5,
                               spike_db=25.0).values()
        first = est.fit(p, q, spiked, warm=cold.warm)
        assert not first.warm_started  # rejected: residuals blew up
        assert first.warm is not None  # ...but the re-fit still re-seeds
        # The glitch clears. The glitch-tick's re-fit may itself be too
        # contaminated to seed from (n pinned at a bound, huge residual
        # scale) — the chain then runs one more cold tick and resumes warm
        # from *that* fit at the latest.
        second = est.fit(p, q, rss + rng.normal(0, 0.3, rss.shape),
                         warm=first.warm)
        third = est.fit(p, q, rss + rng.normal(0, 0.3, rss.shape),
                        warm=second.warm)
        assert third.warm_started
        assert third.position.distance_to(Vec2(*self.TRUE)) < 1.5

    def test_unusable_warm_states_fall_back_cold(self):
        est, p, q, rss, _cold = self._cold()
        bad = [
            WarmStartState(x=math.nan, h=3.0, gamma=-59.0, n=2.0,
                           rss_rmse=1.0),
            WarmStartState(x=4.0, h=3.0, gamma=math.inf, n=2.0,
                           rss_rmse=1.0),
            WarmStartState(x=4.0, h=3.0, gamma=-59.0, n=2.0, rss_rmse=-1.0),
        ]
        for warm in bad:
            res = est.fit(p, q, rss, warm=warm)
            assert not res.warm_started
            _assert_fits_identical(res, est.fit(p, q, rss))

    def test_refine_false_uses_linearized_neighbourhood(self):
        """A linearised fit has no warm neighbourhood: given a warm state
        it searches the whole exponent grid, bit for bit the fit without
        one, and judges no warm state."""
        est = EllipticalEstimator(refine=False, gamma_prior=None)
        p, q = _l_walk()
        rss = _rss_for(self.TRUE, p, q, noise=0.3,
                       rng=np.random.default_rng(11))
        cold = est.fit(p, q, rss)
        with recording() as sink:
            warm_res = est.fit(p, q, rss, warm=cold.warm)
        judged = [e for e in sink.events if e.name.startswith("solver.warm")]
        assert cold.solver == "linearized"
        assert cold.n_candidates == len(DEFAULT_N_GRID)
        _assert_fits_identical(warm_res, cold)
        assert warm_res.n_candidates == cold.n_candidates
        assert not judged


#: Cold-fit cache for the ragged-batch property: one cold solve per window
#: length, reused across hypothesis examples (cold fits are the slow part).
_WARM_POOL = {}


def _pooled_request(n_samples):
    if n_samples not in _WARM_POOL:
        est = EllipticalEstimator()
        p, q = _l_walk(n=n_samples)
        rng = np.random.default_rng(1000 + n_samples)
        rss = _rss_for((4.0, 3.0), p, q, noise=1.0, rng=rng)
        warm = est.fit(p, q, rss).warm
        rss2 = rss + rng.normal(0.0, 0.4, rss.shape)
        _WARM_POOL[n_samples] = (est, p, q, rss2, warm)
    return _WARM_POOL[n_samples]


#: A warm state even a converged warm fit rejects as a residual blow-up:
#: it sits near the optimum, but no noisy window's RMSE passes its 0.01 dB
#: residual scale under :func:`_zero_floor`'s zero acceptance floor.
_STALE = WarmStartState(x=4.0, h=3.0, gamma=-59.0, n=2.0, rss_rmse=0.01)


@contextlib.contextmanager
def _zero_floor():
    """Warm fits judged against a 0 dB floor
    (:data:`~repro.core.estimator.WARM_FLOOR_DB`) instead of 4 dB."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "WARM_FLOOR_DB", 0.0)
        yield


class TestFitBatchBitIdentity:
    def test_batch_equals_sequential_loop(self):
        est, p, q, rss2, warm = _pooled_request(40)
        requests = []
        for i in range(6):
            _est, pi, qi, ri, wi = _pooled_request(30 + 2 * i)
            requests.append(FitRequest(p=pi, q=qi, rss=ri, warm=wi))
        seq = [est.fit(r.p, r.q, r.rss, warm=r.warm) for r in requests]
        bat = fit_batch(requests, default_estimator=est)
        assert all(r.warm_started for r in seq)
        for s, b in zip(seq, bat):
            _assert_fits_identical(s, b)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.sampled_from([24, 30, 36, 40]), min_size=1,
                    max_size=6))
    def test_ragged_window_sizes_property(self, sizes):
        """Any mix of window lengths — equal-length groups batch together,
        the rest fall through — must reproduce the sequential loop bitwise."""
        est = EllipticalEstimator()
        requests = [FitRequest(p=p, q=q, rss=r, warm=w)
                    for (_e, p, q, r, w)
                    in (_pooled_request(n) for n in sizes)]
        seq = [est.fit(r.p, r.q, r.rss, warm=r.warm) for r in requests]
        bat = fit_batch(requests, default_estimator=est)
        for s, b in zip(seq, bat):
            _assert_fits_identical(s, b)

    def test_cold_requests_match_sequential_cold(self):
        est, p, q, rss2, _warm = _pooled_request(40)
        requests = [FitRequest(p=p, q=q, rss=rss2)] * 3
        seq = [est.fit(r.p, r.q, r.rss) for r in requests]
        bat = fit_batch(requests, default_estimator=est)
        for s, b in zip(seq, bat):
            assert not b.warm_started
            _assert_fits_identical(s, b)

    def test_return_exceptions_isolates_bad_requests(self):
        est, p, q, rss2, warm = _pooled_request(40)
        bad = FitRequest(p=p[:3], q=q[:3], rss=rss2[:3])  # too few samples
        good = FitRequest(p=p, q=q, rss=rss2, warm=warm)
        results = fit_batch([good, bad, good], default_estimator=est,
                            return_exceptions=True)
        assert isinstance(results[1], ReproError)
        _assert_fits_identical(results[0], results[2])
        with pytest.raises(ReproError):
            fit_batch([good, bad], default_estimator=est)

    def test_rejected_warm_in_batch_matches_sequential_rejection(self):
        est, p, q, rss2, _warm = _pooled_request(40)
        stale = _STALE
        req = FitRequest(p=p, q=q, rss=rss2, warm=stale)
        with _zero_floor():
            before = perf.counter_value("solver.warm_rejected")
            with recording() as sink:
                bat = fit_batch([req], default_estimator=est)
            after = perf.counter_value("solver.warm_rejected")
            rejections = sink.named("solver.warm_rejected")
            seq = est.fit(p, q, rss2, warm=stale)
        assert after - before == len(rejections) == 1
        assert rejections[0].fields["reason"] == "residual blow-up"
        assert not bat[0].warm_started
        _assert_fits_identical(bat[0], seq)


#: Warm states the estimator refuses to seed from, by refusal reason.
_UNUSABLE = {
    "non-finite": WarmStartState(x=math.nan, h=3.0, gamma=-59.0, n=2.0,
                                 rss_rmse=1.0),
    "negative-rmse": WarmStartState(x=4.0, h=3.0, gamma=-59.0, n=2.0,
                                    rss_rmse=-1.0),
}

#: Request kinds of the mixed-batch property.
_KINDS = ("cold", "warm", "rejected", "unusable", "straight",
          "straight-warm", "nlos-cold")

_MIXED_POOL = {}


def _mixed_request(kind, n_samples):
    """One deterministic request of ``kind`` with an ``n_samples`` window."""
    key = (kind, n_samples)
    if key in _MIXED_POOL:
        return _MIXED_POOL[key]
    rng = np.random.default_rng(2000 + n_samples + 97 * _KINDS.index(kind))
    est = EllipticalEstimator()
    if kind.startswith("straight"):
        p = -np.linspace(0.0, 3.5, n_samples)
        q = np.zeros(n_samples)
    else:
        p, q = _l_walk(n=n_samples)
    rss = _rss_for((4.0, -3.0), p, q, noise=1.0, rng=rng)
    warm = None
    override = None
    if kind in ("warm", "straight-warm"):
        warm = est.fit(p, q, rss).warm
        rss = rss + rng.normal(0.0, 0.4, rss.shape)
    elif kind == "rejected":
        warm = _STALE
    elif kind == "unusable":
        warm = list(_UNUSABLE.values())[n_samples % len(_UNUSABLE)]
    elif kind == "nlos-cold":
        override = est.with_environment("NLOS")
    req = FitRequest(p=p, q=q, rss=rss, warm=warm, estimator=override)
    _MIXED_POOL[key] = req
    return req


def _event_counts(sink):
    """How many of each judged-fit event ``sink`` recorded."""
    return {name: len(sink.named(name)) for name in
            ("solver.warm_unusable", "solver.warm_rejected",
             "estimator.cov_fallbacks")}


class TestMixedBatchBitIdentity:
    """fit_batch ≡ the sequential fit loop for every request kind: cold,
    warm, rejected-warm, unusable-warm, straight-leg (``use_q=False``)
    and per-request estimator overrides, with ragged window lengths. Warm
    fits are judged against :func:`_zero_floor`, so :data:`_STALE` is
    rejected."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_KINDS),
                              st.sampled_from([24, 30, 31, 40])),
                    min_size=1, max_size=7))
    def test_mixed_kinds_property(self, draws):
        est = EllipticalEstimator()
        requests = [_mixed_request(kind, n) for kind, n in draws]
        with _zero_floor():
            with recording() as sink:
                seq = [(r.estimator or est).fit(r.p, r.q, r.rss, warm=r.warm)
                       for r in requests]
            seq_events = _event_counts(sink)
            with recording() as sink:
                bat = fit_batch(requests, default_estimator=est)
            bat_events = _event_counts(sink)
        for s, b in zip(seq, bat):
            _assert_fits_identical(s, b)
            assert s.n_candidates == b.n_candidates
        assert seq_events == bat_events
        n_unusable = sum(kind == "unusable" for kind, _n in draws)
        assert bat_events["solver.warm_unusable"] == n_unusable
        for (kind, _n), b in zip(draws, bat):
            assert b.warm_started == (kind in ("warm", "straight-warm"))
            assert (b.mirror is None) == (not kind.startswith("straight"))

    def test_serving_shape_batch_equals_sequential(self):
        """20 requests at 158–162 rows (a 20 s window at 8 Hz), default,
        LOS and NLOS priors, warm and cold: the 160-row group's lockstep
        runs carry ~20 warm and ~100 cold seed rows, the shape the serving
        path solves."""
        base = EllipticalEstimator()
        requests = []
        for i in range(20):
            n_rows = (158, 160, 160, 160, 162)[i % 5]
            est = (base, base.with_environment("LOS"),
                   base.with_environment("NLOS"))[i % 3]
            rng = np.random.default_rng(3000 + i)
            p, q = _l_walk(n=n_rows, leg1=3.0, leg2=2.5)
            rss = _rss_for((3.0 + 0.2 * i, 2.0 - 0.3 * i), p, q, noise=2.0,
                           rng=rng)
            warm = None
            if i % 2 == 0:
                warm = est.fit(p, q, rss).warm
                rss = rss + rng.normal(0.0, 0.5, rss.shape)
            requests.append(FitRequest(p=p, q=q, rss=rss, warm=warm,
                                       estimator=est))
        seq = [r.estimator.fit(r.p, r.q, r.rss, warm=r.warm)
               for r in requests]
        bat = fit_batch(requests, default_estimator=base)
        for s, b in zip(seq, bat):
            _assert_fits_identical(s, b)
            assert s.n_candidates == b.n_candidates
        assert any(b.warm_started for b in bat)
        assert not all(b.warm_started for b in bat)


class TestCheckpointedWarmState:
    def test_exponent_past_the_old_window_warm_starts(self):
        """A checkpointed warm state whose exponent lies on the box edge,
        past the old ±0.3 window around the cold grid, restores and
        warm-starts: the warm fit seeds only the position. Alone and in a
        batch, with no ``solver.warm_unusable`` event."""
        req = _mixed_request("warm", 40)
        saved = json.loads(json.dumps(dataclasses.replace(
            req.warm, n=5.0).to_dict()))
        warm = WarmStartState.from_dict(saved)
        est = EllipticalEstimator()
        with recording() as sink:
            alone = est.fit(req.p, req.q, req.rss, warm=warm)
            (batched,) = fit_batch([FitRequest(req.p, req.q, req.rss,
                                               warm=warm)],
                                   default_estimator=est)
        assert alone.warm_started and alone.n_candidates == 1
        assert sink.named("solver.warm_unusable") == []
        _assert_fits_identical(alone, batched)


class TestWarmUnusableEvent:
    @pytest.mark.parametrize("reason", sorted(_UNUSABLE))
    def test_one_event_and_counter_per_request(self, reason):
        warm = _UNUSABLE[reason]
        req = _mixed_request("cold", 30)
        est = EllipticalEstimator()
        for solve in (lambda: est.fit(req.p, req.q, req.rss, warm=warm),
                      lambda: fit_batch([FitRequest(req.p, req.q, req.rss,
                                                    warm=warm)] * 2,
                                        default_estimator=est)):
            before = perf.counter_value("solver.warm_unusable")
            with recording() as sink:
                out = solve()
            n_req = len(out) if isinstance(out, list) else 1
            events = sink.named("solver.warm_unusable")
            assert len(events) == n_req
            assert (perf.counter_value("solver.warm_unusable")
                    - before) == n_req
            assert events[0].fields["reason"] == reason
            assert (events[0].fields["warm_n"] == warm.n
                    or math.isnan(warm.n))

    def test_usable_warm_emits_nothing(self):
        req = _mixed_request("warm", 30)
        with recording() as sink:
            EllipticalEstimator().fit(req.p, req.q, req.rss, warm=req.warm)
        assert sink.named("solver.warm_unusable") == []


class TestColdKernelRegressions:
    def test_all_seeds_non_finite_raise_typed_error(self):
        """Finite but absurd readings overflow every seed's cost: the cold
        fit must refuse with a typed error, alone and inside a batch."""
        p, q = _l_walk(n=30)
        est = EllipticalEstimator()
        for value in (1e200, -1e200):
            for qq in (q, np.zeros_like(q)):
                rss = np.full(30, value)
                with np.errstate(all="ignore"):
                    with pytest.raises(DegenerateGeometryError):
                        est.fit(p, qq, rss)
                    out = fit_batch([FitRequest(p, qq, rss)],
                                    default_estimator=est,
                                    return_exceptions=True)
                assert isinstance(out[0], DegenerateGeometryError)

    def test_collinear_walk_is_rank_deficient_and_evented_once(self):
        ox = np.linspace(0.0, 3.0, 30)
        rss = np.array([rss_at(d, -59.0, 2.0) for d in np.abs(5.0 - ox)])
        est = EllipticalEstimator()
        for solve in (lambda: est.fit(-ox, np.zeros(30), rss),
                      lambda: fit_batch([FitRequest(-ox, np.zeros(30), rss)],
                                        default_estimator=est)[0]):
            before = perf.counter_value("estimator.cov_fallbacks")
            with recording() as sink:
                r = solve()
            events = sink.named("estimator.cov_fallbacks")
            assert r.solver == "gauss-newton"
            assert r.cov_status == "rank-deficient"
            assert r.position_std == EllipticalEstimator.POS_STD_CAP
            assert perf.counter_value("estimator.cov_fallbacks") - before == 1
            assert len(events) == 1
            assert events[0].fields["status"] == "rank-deficient"

    @pytest.mark.parametrize("side", [3.0, -3.0])
    def test_fit_leg_returns_mirrored_pair(self, side):
        a = np.linspace(0, 3.5, 35)
        rng = np.random.default_rng(4)
        rss = (np.array([rss_at(d, -59.0, 2.0)
                         for d in np.hypot(4.0 - a, side)])
               + rng.normal(0.0, 0.5, a.shape))
        pos, neg = EllipticalEstimator().fit_leg(a, rss)
        assert pos.position.y >= 0.0 >= neg.position.y
        assert pos.position.x == neg.position.x
        assert pos.position.y == -neg.position.y
        assert pos.mirror == neg.position and neg.mirror == pos.position
        assert pos.warm.h == -neg.warm.h
        assert pos.position.distance_to(Vec2(4.0, abs(side))) < 1.0


class TestServiceBatchTick:
    def test_batch_mode_checkpoint_restore_bit_identical(self):
        from repro.sim.faults import FaultModel
        from repro.sim.soak import SoakConfig, run_soak

        result = run_soak(SoakConfig(
            duration_s=40.0, seed=11, checkpoint_t=20.0,
            fault=FaultModel(loss_rate=0.1),
        ))
        assert result.untyped_errors == 0
        assert result.checkpoint_equal is True


class TestSessionWarmCheckpoint:
    def test_warm_state_survives_checkpoint_round_trip(self):
        from repro.sim.faults import FaultModel
        from repro.sim.soak import SoakConfig, run_soak

        result = run_soak(SoakConfig(
            duration_s=60.0, seed=3, checkpoint_t=30.0,
            fault=FaultModel(loss_rate=0.1),
        ))
        assert result.checkpoint_equal is True
        assert result.counters.get("fixes_accepted", 0) > 0
