"""Fault injection: deterministic degradation of simulated traces.

Unit tests for every injector plus the Monte-Carlo degradation smoke test
(`faults` marker) asserting that 30 % bursty loss completes without crashes
and with bounded error growth.
"""

import pickle

import numpy as np
import pytest

from repro.core.pipeline import LocBLE
from repro.errors import ConfigurationError
from repro.service.session import default_pipeline_factory
from repro.sim.faults import (
    FaultModel,
    degradation_sweep,
    inject_bursty_loss,
    inject_clock_faults,
    inject_nonfinite,
    inject_outages,
    inject_spikes,
)
from repro.sim.montecarlo import stationary_trials, summarize
from repro.types import RssiTrace
from repro.world.scenarios import scenario


def make_trace(n=400, rate=10.0):
    ts = np.arange(n) / rate
    vals = -60.0 - 10.0 * np.log10(1.0 + ts)
    return RssiTrace.from_arrays(ts, vals, beacon_id="t")


class TestBurstyLoss:
    def test_zero_rate_is_identity(self):
        tr = make_trace()
        out = inject_bursty_loss(tr, np.random.default_rng(0), 0.0)
        assert len(out) == len(tr)

    def test_long_run_loss_rate(self):
        tr = make_trace(n=4000)
        out = inject_bursty_loss(tr, np.random.default_rng(1), 0.3,
                                 mean_burst=4.0)
        survived = len(out) / len(tr)
        assert 0.6 < survived < 0.8  # ~70 % kept at 30 % loss

    def test_losses_are_bursty(self):
        tr = make_trace(n=4000)
        rng = np.random.default_rng(2)
        out = inject_bursty_loss(tr, rng, 0.3, mean_burst=6.0)
        kept = np.isin(tr.timestamps(), out.timestamps())
        runs = []
        run = 0
        for k in kept:
            if not k:
                run += 1
            elif run:
                runs.append(run)
                run = 0
        if run:
            runs.append(run)
        assert np.mean(runs) > 2.0  # far from independent per-sample loss

    def test_deterministic(self):
        tr = make_trace()
        a = inject_bursty_loss(tr, np.random.default_rng(3), 0.4)
        b = inject_bursty_loss(tr, np.random.default_rng(3), 0.4)
        assert np.array_equal(a.timestamps(), b.timestamps())

    def test_validation(self):
        tr = make_trace(10)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            inject_bursty_loss(tr, rng, 1.0)
        with pytest.raises(ConfigurationError):
            inject_bursty_loss(tr, rng, 0.2, mean_burst=0.5)


class TestOutages:
    def test_samples_inside_outage_removed(self):
        tr = make_trace(n=200, rate=10.0)
        out = inject_outages(tr, np.random.default_rng(4), 2, 2.0)
        assert 0 < len(out) < len(tr)
        # The removed spans show up as gaps of at least the outage duration.
        dt = np.diff(out.timestamps())
        assert dt.max() >= 1.9

    def test_zero_outages_identity(self):
        tr = make_trace(20)
        out = inject_outages(tr, np.random.default_rng(0), 0, 5.0)
        assert len(out) == len(tr)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            inject_outages(make_trace(5), np.random.default_rng(0), -1, 1.0)


class TestClockFaults:
    def test_skew_stretches_duration(self):
        tr = make_trace(n=100, rate=10.0)
        out = inject_clock_faults(tr, np.random.default_rng(5),
                                  skew_ppm=1e5)  # 10 % fast clock
        assert out.duration() == pytest.approx(tr.duration() * 1.1)

    def test_jitter_can_reorder(self):
        tr = make_trace(n=200, rate=10.0)
        out = inject_clock_faults(tr, np.random.default_rng(6), jitter_s=0.2)
        assert np.any(np.diff(out.timestamps()) < 0)

    def test_values_untouched(self):
        tr = make_trace(50)
        out = inject_clock_faults(tr, np.random.default_rng(7), jitter_s=0.05)
        assert np.array_equal(out.values(), tr.values())


class TestSpikesAndGlitches:
    def test_spike_fraction_and_magnitude(self):
        tr = make_trace(n=2000)
        out = inject_spikes(tr, np.random.default_rng(8), 0.1, spike_db=25.0)
        delta = np.abs(out.values() - tr.values())
        hit = delta > 0
        assert 0.06 < hit.mean() < 0.14
        assert np.all(np.isin(np.round(delta[hit], 6), [25.0]))

    def test_nan_glitches(self):
        tr = make_trace(n=1000)
        out = inject_nonfinite(tr, np.random.default_rng(9), 0.05)
        frac = np.mean(~np.isfinite(out.values()))
        assert 0.02 < frac < 0.09
        assert len(out) == len(tr)


class TestFaultModel:
    def test_null_model_is_identity(self):
        tr = make_trace(50)
        model = FaultModel()
        assert model.is_null()
        out = model.apply(tr, np.random.default_rng(0))
        assert np.array_equal(out.timestamps(), tr.timestamps())
        assert np.array_equal(out.values(), tr.values())

    def test_input_never_mutated(self):
        tr = make_trace(200)
        before = tr.values().copy()
        FaultModel(loss_rate=0.5, spike_rate=0.3, jitter_s=0.1).apply(
            tr, np.random.default_rng(1))
        assert np.array_equal(tr.values(), before)

    def test_picklable_for_process_pool(self):
        model = FaultModel(loss_rate=0.3, n_outages=1, jitter_s=0.01)
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model

    def test_pipeline_factory_picklable_for_process_pool(self):
        # The factory the degrade CLI hands degradation_sweep, which ships
        # it to worker processes.
        factory = pickle.loads(pickle.dumps(default_pipeline_factory))
        assert factory is default_pipeline_factory
        pipeline = factory()
        assert isinstance(pipeline, LocBLE)
        assert pipeline.sanitize == "repair"

    def test_composite_deterministic(self):
        tr = make_trace(300)
        model = FaultModel(loss_rate=0.2, spike_rate=0.05, jitter_s=0.02,
                           n_outages=1, outage_s=0.5, nan_rate=0.02)
        a = model.apply(tr, np.random.default_rng(11))
        b = model.apply(tr, np.random.default_rng(11))
        assert np.array_equal(a.timestamps(), b.timestamps())
        assert np.array_equal(a.values(), b.values(),
                              equal_nan=True)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultModel(loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultModel(nan_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultModel(mean_burst=0.0)
        with pytest.raises(ConfigurationError):
            FaultModel(skew_ppm=float("nan"))


@pytest.mark.faults
class TestDegradationMonteCarlo:
    """The one-call degradation experiment the tentpole promises."""

    def test_bounded_error_growth_under_bursty_loss(self):
        sc = scenario(1)
        seeds = range(6)
        sweep = degradation_sweep(
            sc, seeds,
            fault_models=[FaultModel(), FaultModel(loss_rate=0.3,
                                                   mean_burst=4.0)],
            failure_value=15.0,
        )
        (clean_model, clean_errors), (lossy_model, lossy_errors) = sweep
        # Every trial completes — crashes would be dropped, shrinking n.
        assert len(clean_errors) == len(lossy_errors) == 6
        clean_s = summarize(clean_errors)
        lossy_s = summarize(lossy_errors)
        assert np.all(np.isfinite(lossy_errors))
        # Bounded degradation: 30 % bursty loss costs metres, not the farm.
        assert lossy_s.median <= clean_s.median + 4.0
        assert lossy_s.maximum <= 15.0  # nothing exceeded the failure value

    def test_heavy_composite_faults_complete(self):
        # Loss + outage + jitter + spikes + NaNs all at once: the pipeline
        # must degrade, never crash — sanitize + estimate_robust absorb it.
        sc = scenario(2)
        model = FaultModel(loss_rate=0.3, mean_burst=5.0, n_outages=1,
                           outage_s=1.0, jitter_s=0.03, spike_rate=0.05,
                           spike_db=25.0, nan_rate=0.05)
        errors = stationary_trials(sc, range(4), fault_model=model,
                                   failure_value=15.0)
        assert len(errors) == 4
        assert np.all(np.isfinite(errors))

    def test_fault_free_fault_model_matches_baseline(self):
        sc = scenario(1)
        base = stationary_trials(sc, range(3))
        nulled = stationary_trials(sc, range(3), fault_model=FaultModel())
        assert base == nulled


@pytest.mark.faults
class TestDegradeCli:
    def test_cli_degrade_runs(self, capsys):
        from repro.cli import main

        rc = main(["degrade", "--scenario", "1", "--seeds", "2",
                   "--loss", "0", "0.3"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "loss" in captured.out
        assert captured.out.count("\n") >= 4
