"""Regressions for the ParticleEstimator's silent posterior-wipe failures.

The historical bug (fixed in this change): one non-finite or wildly
inconsistent reading drove ``update()`` into the degenerate-weight branch,
which silently ``reset()`` the entire posterior **and** zeroed
``_n_updates`` — so a later ``estimate()`` raised ``EstimationError("no
readings assimilated yet")`` after hundreds of successful updates, with no
event, no counter, and no typed diagnostics. These tests pin the new
contract: bad readings are screened (typed in strict mode, skip-and-count
in repair mode), the degenerate branch keeps the pre-update posterior and
is loud, and ``estimate()`` keeps working after any rejected reading.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.channel.pathloss import rss_at
from repro.baselines.particle import ParticleEstimator
from repro.errors import DataQualityError, EstimationError

TRUE = (4.0, 3.0)


def _l_walk_readings(rng, true=TRUE, gamma=-59.0, n=2.1, noise=1.5,
                     n_samples=40):
    d = np.linspace(0, 4.5, n_samples)
    p = -np.minimum(d, 2.5)
    q = -np.clip(d - 2.5, 0, 2.0)
    l = np.hypot(true[0] + p, true[1] + q)
    rss = np.array([rss_at(x, gamma, n) for x in l])
    rss = rss + rng.normal(0, noise, n_samples)
    return p, q, rss


def _converged(seed=0, sanitize="strict") -> ParticleEstimator:
    rng = np.random.default_rng(seed)
    p, q, rss = _l_walk_readings(rng)
    pf = ParticleEstimator(np.random.default_rng(seed), sanitize=sanitize)
    pf.update_batch(p, q, rss)
    return pf


class TestPosteriorWipeRegression:
    def test_junk_reading_does_not_wipe_history(self):
        """The headline regression: the old code wiped the posterior and
        the update counter on a single NaN, making estimate() crash with
        "no readings assimilated yet" after dozens of good updates."""
        pf = _converged(sanitize="repair")
        n_before = pf.n_updates
        before = pf.estimate()
        assert not pf.update(float("nan"), 0.0, -60.0)
        assert pf.n_updates == n_before
        after = pf.estimate()  # old code: EstimationError here
        assert after.position.x == before.position.x
        assert after.position.y == before.position.y

    def test_degenerate_weights_keep_pre_update_posterior(self, monkeypatch,
                                                          recorded):
        """Force the degenerate-weight branch itself (screening normally
        stops anything that could reach it) and check it drops only the
        offending reading — evented and counted, posterior intact."""
        pf = _converged(sanitize="repair")
        monkeypatch.setattr(pf, "_screen", lambda *a: True)
        n_before = pf.n_updates
        before = pf.estimate()
        counter_before = perf.counter_value("solver.particle_degenerate")

        assert not pf.update(0.0, 0.0, -1.0e200)  # log-weights -> all NaN

        assert pf.n_updates == n_before
        after = pf.estimate()
        assert after.position.x == before.position.x
        assert after.position.y == before.position.y
        assert (perf.counter_value("solver.particle_degenerate")
                == counter_before + 1)
        assert len(recorded.named("solver.particle_degenerate")) == 1

    def test_strict_mode_raises_typed_on_junk(self):
        pf = _converged(sanitize="strict")
        with pytest.raises(DataQualityError):
            pf.update(float("nan"), 0.0, -60.0)
        with pytest.raises(DataQualityError):
            pf.update(0.0, float("inf"), -60.0)
        with pytest.raises(DataQualityError):
            pf.update(0.0, 0.0, -1.0e200)  # implausible RSS band
        pf.estimate()  # posterior untouched by the refused readings

    def test_repair_mode_skips_and_counts(self, recorded):
        pf = _converged(sanitize="repair")
        counter_before = perf.counter_value("solver.particle_skipped")
        taken = pf.update_batch(
            [0.0, float("nan"), 0.1], [0.0, 0.0, 0.1], [-60.0, -60.0, 500.0]
        )
        assert taken == 1
        assert pf.n_skipped == 2
        assert (perf.counter_value("solver.particle_skipped")
                == counter_before + 2)
        assert len(recorded.named("solver.particle_skipped")) == 2

    def test_explicit_reset_is_still_a_full_restart(self, recorded):
        """reset() remains the deliberate start-over: counter zeroed,
        estimate refused until new data — but now evented and counted."""
        pf = _converged(sanitize="repair")
        counter_before = perf.counter_value("solver.particle_resets")
        pf.reset()
        assert pf.n_updates == 0
        with pytest.raises(EstimationError):
            pf.estimate()
        assert perf.counter_value("solver.particle_resets") == counter_before + 1
        assert len(recorded.named("solver.particle_resets")) == 1


class TestUpdateBatchTypedErrors:
    def test_non_numeric_raises_typed_in_strict(self):
        pf = ParticleEstimator(np.random.default_rng(0))
        with pytest.raises(DataQualityError):
            pf.update_batch(["spam"], [0.0], [-60.0])
        with pytest.raises(DataQualityError):
            pf.update_batch([0.0], [None], [-60.0])
        with pytest.raises(DataQualityError):
            pf.update_batch([0.0], [0.0], [{"rss": -60}])

    def test_non_numeric_skipped_in_repair(self):
        pf = _converged(sanitize="repair")
        before = pf.n_updates
        taken = pf.update_batch(["spam", 0.0], [0.0, 0.0], [-60.0, -61.0])
        assert taken == 1
        assert pf.n_updates == before + 1


class TestJunkNeverDestroysPosterior:
    _BAD = st.sampled_from([
        float("nan"), float("inf"), -float("inf"), -1.0e200, 1.0e200, 500.0,
    ])
    _OK = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)

    @staticmethod
    def _junk_reading(draw_bad, p, q, rss, which):
        # Exactly the fields named by ``which`` are poisoned; an RSS is
        # junk when outside the plausible band, p/q only when non-finite.
        if "p" in which:
            p = draw_bad if not np.isfinite(draw_bad) else float("nan")
        if "q" in which:
            q = draw_bad if not np.isfinite(draw_bad) else float("inf")
        if "rss" in which:
            rss = draw_bad
        return p, q, rss

    @given(
        readings=st.lists(
            st.tuples(
                _BAD,
                st.sampled_from(["p", "q", "rss", "pq", "prss", "pqrss"]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_junk_stream_leaves_converged_posterior_bit_identical(
        self, readings
    ):
        """Property (hypothesis): arbitrary junk readings — any mix of
        non-finite displacements and non-finite/implausible RSS — never
        move a converged posterior at all, and estimate() keeps working."""
        pf = _converged(sanitize="repair")
        state_before = pf._state.copy()
        weights_before = pf._weights.copy()
        n_before = pf.n_updates

        for bad, which in readings:
            p, q, rss = self._junk_reading(bad, 0.5, -0.5, -60.0, which)
            assert not pf.update(p, q, rss)

        assert pf.n_updates == n_before
        np.testing.assert_array_equal(pf._state, state_before)
        np.testing.assert_array_equal(pf._weights, weights_before)
        pf.estimate()


class TestEstimateDiagnostics:
    def test_estimate_carries_posterior_spread_diagnostics(self):
        pf = _converged(sanitize="repair")
        pf.update(float("nan"), 0.0, -60.0)
        est = pf.estimate()
        diag = est.diagnostics
        assert diag is not None
        assert diag.n_samples_used == pf.n_updates
        prov = diag.provenance
        assert prov.solver == "particle"
        assert prov.n_candidates == pf.n_particles
        assert prov.sanitized_dropped == 1
        assert prov.sanitized_repaired is True
        assert prov.position_std == pytest.approx(est.position_std)
        assert prov.confidence == pytest.approx(est.confidence)
