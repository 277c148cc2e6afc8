"""Ablation — LocBLE vs the alternative estimator designs and baselines.

The paper only compares against the Dartle ranging app; a downstream user
deciding between architectures wants the wider field on a common workload:

* **LocBLE (batch NLS)** — this library's default: no survey, no anchors;
* **Particle filter** — the sequential design alternative (same inputs);
* **Fingerprinting, fresh survey** — the RADAR-family comparator with a
  same-day calibration walk in the same room;
* **Fingerprinting, stale survey** — the same map after the environment
  changed (surveyed in a different channel realisation), the maintenance
  cost fingerprinting carries;
* **Dartle** — the fixed-constant ranger (range error, 1-D).

Shape asserted: LocBLE and the particle filter are close (they consume the
same information); the fresh survey is competitive; the stale survey and
the fixed-constant ranger degrade.
"""

from __future__ import annotations

import numpy as np

from helpers import dominant_env, measure_once, print_series, run_experiment
from repro.baselines.dartle import DartleRanger
from repro.baselines.fingerprint import DistanceFingerprint, FingerprintLocator
from repro.baselines.particle import ParticleEstimator
from repro.core.anf import AdaptiveNoiseFilter
from repro.core.estimator import EllipticalEstimator
from repro.core.pipeline import LocBLE
from repro.errors import EstimationError, InsufficientDataError
from repro.motion.deadreckoning import MotionTracker
from repro.sim.simulator import BeaconSpec, Simulator
from repro.types import Vec2
from repro.world.scenarios import scenario
from repro.world.trajectory import random_waypoint_walk

ENVS = (2, 3, 4)
N_SEEDS = 5


def _survey(sc, seed) -> DistanceFingerprint:
    """A calibration walk around the room with the beacon at a known spot."""
    rng = np.random.default_rng(seed)
    sim = Simulator(sc.floorplan, rng)
    walk = random_waypoint_walk(
        sc.observer_start, 10, rng, leg_range=(1.5, 3.5),
        bounds=(sc.floorplan.width, sc.floorplan.height))
    rec = sim.simulate(walk, [BeaconSpec("cal", position=sc.beacon_position)])
    trace = rec.rssi_traces["cal"]
    distances = [
        walk.position_at(t).distance_to(sc.beacon_position)
        for t in trace.timestamps()
    ]
    return DistanceFingerprint().fit(distances, trace.values())


def _experiment():
    rows = {k: [] for k in ("locble", "particle", "fp_fresh", "fp_stale",
                            "dartle_range")}
    for idx in ENVS:
        sc = scenario(idx)
        env = dominant_env(sc)
        fresh = _survey(sc, 4242 + idx)      # same room, same day
        stale = _survey(scenario(7), 999)    # surveyed elsewhere / long ago
        for seed in range(N_SEEDS):
            rec, _ = measure_once(sc, 8800 + seed)
            truth = rec.true_position_in_frame("target")
            trace = rec.rssi_traces["target"]
            track = MotionTracker().track(rec.observer_imu.trace)
            ts = trace.timestamps()
            walk_pos = [track.displacement_at(t) for t in ts]
            p = np.array([-w.x for w in walk_pos])
            q = np.array([-w.y for w in walk_pos])
            filtered = AdaptiveNoiseFilter().apply(
                trace.values(), trace.mean_rate_hz())

            try:
                # The full system: EnvAware's class feeds the priors.
                pipeline = LocBLE(
                    estimator=EllipticalEstimator().with_environment(env))
                est = pipeline.estimate(trace, rec.observer_imu.trace)
                rows["locble"].append(est.error_to(truth))
            except (EstimationError, InsufficientDataError):
                rows["locble"].append(10.0)

            pf = ParticleEstimator(np.random.default_rng(seed))
            pf.update_batch(p, q, filtered)
            rows["particle"].append(pf.estimate().error_to(truth))

            for key, fp in (("fp_fresh", fresh), ("fp_stale", stale)):
                try:
                    est_fp = FingerprintLocator(fp).estimate(
                        walk_pos, filtered)
                    rows[key].append(est_fp.distance_to(truth))
                except (EstimationError, InsufficientDataError):
                    rows[key].append(10.0)

            rows["dartle_range"].append(
                DartleRanger().range_error(trace, truth.norm()))
    return {k: float(np.median(v)) for k, v in rows.items()}


def test_ablation_baseline_field(benchmark):
    medians = run_experiment(benchmark, _experiment)
    print_series("Baselines — median error (m), envs #2-#4", medians)

    # The two no-survey designs consuming the same data land close.
    assert abs(medians["locble"] - medians["particle"]) < 2.0
    # LocBLE needs no calibration pass yet stays competitive with the
    # surveyed fingerprint ...
    assert medians["locble"] < medians["fp_fresh"] + 1.5
    # ... and beats the stale survey.
    assert medians["locble"] < medians["fp_stale"]
