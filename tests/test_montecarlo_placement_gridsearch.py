"""Tests for Monte-Carlo orchestration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.montecarlo import (
    empirical_cdf,
    stationary_trials,
    summarize,
)
from repro.world.scenarios import scenario


class TestStationaryTrials:
    def test_returns_one_error_per_seed(self):
        errs = stationary_trials(scenario(1), seeds=range(3))
        assert len(errs) == 3
        assert all(e >= 0 for e in errs)

    def test_deterministic(self):
        a = stationary_trials(scenario(2), seeds=[5, 6])
        b = stationary_trials(scenario(2), seeds=[5, 6])
        assert a == b

    def test_custom_pipeline_factory(self):
        from repro.core.pipeline import LocBLE

        calls = []

        def factory():
            calls.append(1)
            return LocBLE()

        stationary_trials(scenario(1), seeds=range(2),
                          pipeline_factory=factory)
        assert len(calls) == 2


class TestSummarize:
    def test_statistics(self):
        s = summarize([1.0, 2.0, 3.0, 4.0], n_failed=1)
        assert s.n == 4 and s.n_failed == 1
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.maximum == 4.0
        assert "median=2.50" in str(s)

    def test_percentiles_ordered(self, rng):
        s = summarize(rng.uniform(0, 5, 200))
        assert s.median <= s.p75 <= s.p90 <= s.maximum

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            summarize([])
        with pytest.raises(ConfigurationError):
            summarize([1.0, float("nan")])


class TestEmpiricalCdf:
    def test_shape_and_monotonicity(self, rng):
        e, f = empirical_cdf(rng.uniform(0, 5, 50))
        assert np.all(np.diff(e) >= 0)
        assert np.all(np.diff(f) > 0)
        assert f[-1] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([])
