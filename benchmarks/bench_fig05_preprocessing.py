"""Fig. 5 — preprocessing ablation (ANF / EnvAware / solver refinement).

The paper evaluates environments #2–#4 with environmental changes and
reports that removing EnvAware costs >1 m of median error and removing ANF
>1.5 m. Our workload mixes persistently blocked sessions (scenarios #3, #4,
#7) with NLOS→LOS transition walks, then compares:

* the full pipeline,
* the pipeline without EnvAware (no class priors, no regression restarts),
* the pipeline without ANF (raw RSS into the regression),
* the pipeline on the paper's *linearised* solver (Eq. 4/5 without the
  Gauss–Newton refinement this reproduction adds).

Reproduction notes recorded by this bench: EnvAware's benefit reproduces;
ANF's end-to-end benefit does **not** reproduce against the refined solver
(the nonlinear fit is already noise-robust — see EXPERIMENTS.md), so the
assertion on ANF is a neutrality bound rather than the paper's 1.5 m gain.
The refined-vs-linearised gap shows why: the paper's linearised solver is
the fragile consumer the smoothing was protecting.
"""

from __future__ import annotations

import zlib

import numpy as np

from helpers import print_series, run_experiment
from repro.core.anf import AdaptiveNoiseFilter
from repro.core.estimator import EllipticalEstimator
from repro.core.pipeline import LocBLE
from repro.sim.simulator import BeaconSpec, Simulator
from repro.types import Vec2
from repro.world.floorplan import Floorplan
from repro.world.obstacles import wall
from repro.world.scenarios import scenario
from repro.world.trajectory import Trajectory, l_shape

N_SEEDS = 4
TRANSITION_MATERIALS = ("concrete_wall", "cinder_wall", "metal_board")


def _transition_walk() -> Trajectory:
    pts = [Vec2(2.0, 4.0), Vec2(6.0, 4.0), Vec2(6.0, 6.5)]
    times = [0.0]
    for a, b in zip(pts, pts[1:]):
        times.append(times[-1] + a.distance_to(b) / 1.1)
    return Trajectory(pts, times)


def _workload_errors(pipeline_factory) -> np.ndarray:
    errs = []
    # Persistently blocked rooms (scenario presets #3, #4, #7).
    for idx in (3, 4, 7):
        sc = scenario(idx)
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(idx * 91 + seed)
            sim = Simulator(sc.floorplan, rng)
            walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                           leg1=2.8, leg2=2.2)
            rec = sim.simulate(walk, [
                BeaconSpec("t", position=sc.beacon_position)
            ])
            est = pipeline_factory().estimate(
                rec.rssi_traces["t"], rec.observer_imu.trace)
            errs.append(est.error_to(rec.true_position_in_frame("t")))
    # NLOS -> LOS transition walks (wall ends mid-room; the observer's
    # second leg emerges past it).
    for material in TRANSITION_MATERIALS:
        plan = Floorplan(f"tr_{material}", 14.0, 10.0,
                         obstacles=[wall(6.8, 0.0, 6.8, 5.2, material)])
        for seed in range(N_SEEDS):
            rng = np.random.default_rng(
                zlib.crc32(material.encode()) % 512 + seed)
            sim = Simulator(plan, rng)
            rec = sim.simulate(_transition_walk(), [
                BeaconSpec("t", position=Vec2(9.5, 6.0))
            ])
            est = pipeline_factory().estimate(
                rec.rssi_traces["t"], rec.observer_imu.trace)
            errs.append(est.error_to(rec.true_position_in_frame("t")))
    return np.asarray(errs)


def test_fig05_preprocessing_ablation(benchmark, trained_envaware):
    ea = trained_envaware

    def experiment():
        return {
            "full": _workload_errors(lambda: LocBLE(envaware=ea, batch_s=1.5)),
            "w/o ANF": _workload_errors(
                lambda: LocBLE(
                    envaware=ea, batch_s=1.5,
                    anf=AdaptiveNoiseFilter(use_butterworth=False,
                                            use_akf=False),
                )
            ),
            "w/o EnvAware": _workload_errors(lambda: LocBLE(envaware=None)),
            "linearised solver": _workload_errors(
                lambda: LocBLE(
                    envaware=ea, batch_s=1.5,
                    estimator=EllipticalEstimator(refine=False),
                )
            ),
        }

    results = run_experiment(benchmark, experiment)
    medians = {k: float(np.median(v)) for k, v in results.items()}
    print_series("Fig. 5 — median estimation error (m)", medians)
    print_series(
        "Fig. 5 — paper reference",
        {"w/o EnvAware": "> +1 m median", "w/o ANF": "> +1.5 m median",
         "divergence": "ANF is end-to-end neutral against the refined "
                       "solver on this channel (see EXPERIMENTS.md)"},
    )

    # EnvAware's benefit reproduces.
    assert medians["full"] < medians["w/o EnvAware"]
    # ANF neutrality bound: removing it must not swing the median by > 1 m
    # in either direction (the paper's +1.5 m gain does not reproduce
    # against the refined solver; a larger swing would flag a regression).
    assert abs(medians["full"] - medians["w/o ANF"]) < 1.0
    # The Gauss-Newton refinement this reproduction adds is load-bearing:
    # the paper's linearised solver alone is substantially worse.
    assert medians["full"] < medians["linearised solver"]
