"""Solver degradation matrix: every injected fault family against the solver.

Marked ``solvers`` (excluded from tier-1 via addopts — run with
``-m solvers``): every fault family the repo injects (bursty loss, scan
outages, clock skew/jitter/reordering, RSSI spikes, NaN poisoning, and a
kitchen-sink combination) runs against the elliptical regression, through
the serving stack's repair-mode pipeline, on the Table-1 stationary
scenario.

The acceptance bar is the robustness contract:

* **zero untyped errors** — every trial either yields a finite error or
  is refused through the typed :class:`~repro.errors.ReproError` taxonomy
  (an untyped ``TypeError``/``ValueError`` would crash the sweep);
* the clean-input column stays accurate;
* degraded columns still produce estimates for most seeds (the repair
  pipeline drops bad samples instead of giving up).
"""

import numpy as np
import pytest

from repro.service.session import default_pipeline_factory
from repro.sim.faults import FaultModel, degradation_sweep
from repro.sim.montecarlo import summarize
from repro.world.scenarios import scenario

#: The injected fault families, one row each, plus a clean row and the
#: kitchen sink. Rates are deliberately harsh — this is a survival
#: matrix, not a benchmark.
FAULT_MATRIX = {
    "clean": FaultModel(),
    "loss": FaultModel(loss_rate=0.3, mean_burst=4.0),
    "outage": FaultModel(n_outages=2, outage_s=1.5),
    "clock": FaultModel(skew_ppm=200.0, jitter_s=0.05),
    "spikes": FaultModel(spike_rate=0.08, spike_db=25.0),
    "nan": FaultModel(nan_rate=0.1),
    "combined": FaultModel(loss_rate=0.2, mean_burst=3.0, n_outages=1,
                           outage_s=1.0, jitter_s=0.02, spike_rate=0.05,
                           spike_db=20.0, nan_rate=0.05),
}

SEEDS = range(6)


@pytest.mark.solvers
class TestSolverDegradationMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        """Run the full matrix once: [(name, model, errors)]."""
        sweep = degradation_sweep(
            scenario(1),
            SEEDS,
            list(FAULT_MATRIX.values()),
            pipeline_factory=default_pipeline_factory,
        )
        return [
            (name, model, errors)
            for name, (model, errors) in zip(FAULT_MATRIX, sweep)
        ]

    def test_sweep_completes_with_zero_untyped_errors(self, matrix):
        """Reaching this assertion at all means no untyped error escaped:
        degradation_sweep only catches the typed ReproError taxonomy, so a
        bare TypeError/ValueError anywhere would have crashed the fixture."""
        assert [name for name, _, _ in matrix] == list(FAULT_MATRIX)
        for name, _, errors in matrix:
            assert all(np.isfinite(errors)), name

    def test_clean_column_is_accurate(self, matrix):
        name, _, errors = matrix[0]
        assert name == "clean"
        assert len(errors) == len(SEEDS)
        assert summarize(errors).median < 5.0

    def test_degraded_columns_still_produce_estimates(self, matrix):
        for name, _, errors in matrix:
            # The repair path keeps most trials alive under every fault
            # family; a solver that refused everything has regressed to
            # the old give-up-on-first-junk behaviour.
            assert len(errors) >= len(SEEDS) // 2, name
