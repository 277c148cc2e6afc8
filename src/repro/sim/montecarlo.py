"""Monte-Carlo experiment orchestration: trials, summaries, CDFs.

The benchmarks all share one skeleton — run N seeded measurement trials,
collect errors, summarise. This module makes that skeleton a public API so
downstream users can run their own sweeps in a few lines::

    from repro.sim.montecarlo import stationary_trials, summarize

    errors = stationary_trials(scenario(3), seeds=range(20))
    print(summarize(errors))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import EllipticalEstimator
from repro.core.pipeline import LocBLE
from repro.errors import ConfigurationError, ReproError
from repro.sim.faults import FaultModel
from repro.sim.parallel import run_trials
from repro.sim.simulator import BeaconSpec, Simulator
from repro.world.scenarios import Scenario
from repro.world.trajectory import l_shape

__all__ = [
    "TrialSummary",
    "stationary_trials",
    "summarize",
    "empirical_cdf",
]


#: Sentinel distinguishing "the pipeline refused to estimate" (a ReproError,
#: handled by ``failure_value``) from a crashed trial inside worker results.
_REFUSED = "__refused__"


@dataclass(frozen=True)
class _StationaryTrial:
    """Picklable per-seed trial body for :func:`stationary_trials`.

    A frozen dataclass (not a closure) so the process pool can ship it to
    workers; all randomness is derived from the seed inside ``__call__``,
    which is what makes the sweep deterministic under any worker count.
    """

    scenario: Scenario
    pipeline_factory: Optional[Callable[[], LocBLE]]
    env: str
    legs: Tuple[float, float]
    fault_model: Optional[FaultModel] = None

    def __call__(self, seed: int):
        rng = np.random.default_rng(seed)
        sim = Simulator(self.scenario.floorplan, rng)
        walk = l_shape(
            self.scenario.observer_start, self.scenario.observer_heading_rad,
            leg1=self.legs[0], leg2=self.legs[1],
        )
        rec = sim.simulate(walk, [
            BeaconSpec("target", position=self.scenario.beacon_position)])
        trace = rec.rssi_traces["target"]
        faulted = self.fault_model is not None and not self.fault_model.is_null()
        if faulted:
            trace = self.fault_model.apply(trace, rng)
        if self.pipeline_factory is not None:
            pipeline = self.pipeline_factory()
        else:
            pipeline = LocBLE(
                estimator=EllipticalEstimator().with_environment(self.env))
        truth = rec.true_position_in_frame("target")
        if faulted:
            # Degraded inputs go through the graceful path: sanitization plus
            # the zero-confidence fallback instead of a refusal, so the
            # degradation curve keeps every trial it possibly can.
            est = pipeline.estimate_robust(trace, rec.observer_imu.trace)
            err = est.error_to(truth)
            return float(err) if math.isfinite(err) else _REFUSED
        try:
            est = pipeline.estimate(trace, rec.observer_imu.trace)
            return est.error_to(truth)
        except ReproError:
            return _REFUSED


@dataclass(frozen=True)
class TrialSummary:
    """Summary statistics of one error sample."""

    n: int
    n_failed: int
    mean: float
    median: float
    p75: float
    p90: float
    maximum: float

    def __str__(self) -> str:
        return (f"n={self.n} (failed {self.n_failed}) "
                f"mean={self.mean:.2f} median={self.median:.2f} "
                f"p75={self.p75:.2f} p90={self.p90:.2f} "
                f"max={self.maximum:.2f}")


def stationary_trials(
    scenario: Scenario,
    seeds: Iterable[int],
    pipeline_factory: Optional[Callable[[], LocBLE]] = None,
    legs: Tuple[float, float] = (2.8, 2.2),
    failure_value: Optional[float] = None,
    max_workers: Optional[int] = None,
    parallel: str = "auto",
    fault_model: Optional[FaultModel] = None,
) -> List[float]:
    """Run seeded stationary-target measurements; return per-trial errors.

    ``failure_value`` replaces trials where the pipeline refuses to estimate
    (None drops them). Without a ``pipeline_factory`` the estimator is
    configured with the scenario's true dominant environment class — what
    EnvAware would supply at runtime.

    ``fault_model`` (a :class:`repro.sim.faults.FaultModel`) degrades each
    trial's trace — bursty loss, outages, clock faults, spikes — before
    estimation; faulted trials run through
    :meth:`~repro.core.pipeline.LocBLE.estimate_robust`, so sanitization
    and graceful degradation are part of what the sweep measures.

    Trials are dispatched through :func:`repro.sim.parallel.run_trials`:
    each seed is self-contained, so ``max_workers`` / ``parallel`` change
    wall-clock time but never the returned errors. A closure
    ``pipeline_factory`` simply falls back to the serial path (closures
    don't pickle). Trials that crash (non-``ReproError``) are treated like
    refusals: replaced by ``failure_value`` or dropped.
    """
    env = scenario.floorplan.classify_link(
        scenario.beacon_position, scenario.observer_start).env_class
    trial = _StationaryTrial(
        scenario=scenario,
        pipeline_factory=pipeline_factory,
        env=env,
        legs=(float(legs[0]), float(legs[1])),
        fault_model=fault_model,
    )
    results = run_trials(
        trial, seeds, max_workers=max_workers, parallel=parallel)
    errors: List[float] = []
    for r in results:
        # Equality, not identity: the sentinel round-trips through pickle.
        if r.ok and r.value != _REFUSED:
            errors.append(float(r.value))
        elif failure_value is not None:
            errors.append(failure_value)
    return errors


def summarize(errors: Sequence[float], n_failed: int = 0) -> TrialSummary:
    """Summary statistics for an error sample."""
    e = np.asarray(list(errors), dtype=float)
    if e.size == 0:
        raise ConfigurationError("cannot summarise an empty error sample")
    if not np.all(np.isfinite(e)):
        raise ConfigurationError("error sample contains non-finite values")
    return TrialSummary(
        n=int(e.size),
        n_failed=n_failed,
        mean=float(np.mean(e)),
        median=float(np.median(e)),
        p75=float(np.percentile(e, 75)),
        p90=float(np.percentile(e, 90)),
        maximum=float(np.max(e)),
    )


def empirical_cdf(
    errors: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted errors, cumulative fractions) — ready to plot or tabulate."""
    e = np.sort(np.asarray(list(errors), dtype=float))
    if e.size == 0:
        raise ConfigurationError("cannot build a CDF from an empty sample")
    fractions = (np.arange(e.size) + 1) / e.size
    return e, fractions
