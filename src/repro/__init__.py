"""LocBLE reproduction: locating and tracking BLE beacons with smartphones.

Reproduces Chen, Shin, Jiang & Kim, "Locating and Tracking BLE Beacons with
Smartphones", CoNEXT 2017 — the LocBLE system — together with every
substrate it needs (RF channel, BLE protocol, IMU, geometry, filters, ML,
DTW) as a pure-Python simulation-backed library.

Quick start::

    import numpy as np
    from repro import LocBLE, Simulator, BeaconSpec, l_shape, scenario, Vec2

    rng = np.random.default_rng(0)
    sc = scenario(1)                       # Table-1 meeting room
    sim = Simulator(sc.floorplan, rng)
    walk = l_shape(sc.observer_start, sc.observer_heading_rad)
    rec = sim.simulate(walk, [BeaconSpec("b", position=sc.beacon_position)])
    est = LocBLE().estimate(rec.rssi_traces["b"], rec.observer_imu.trace)
    print(est.position, "error:", est.error_to(rec.true_position_in_frame("b")))
"""

from repro.baselines import (
    DartleRanger,
    ParticleEstimator,
    ProximityEstimator,
    ProximityZone,
)
from repro.core import (
    AdaptiveNoiseFilter,
    ClusteringCalibrator,
    EllipticalEstimator,
    EnvAwareClassifier,
    LocBLE,
    Navigator,
)
from repro.fleet import FleetConfig, ShardRouter, TrackingFleet
from repro.gateway import GatewayConfig, IngestionGateway
from repro.service import (
    ServiceConfig,
    SessionConfig,
    SessionState,
    TrackingService,
    TrackingSession,
)
from repro.robustness import (
    EstimateDiagnostics,
    SanitizationReport,
    check_trace,
    sanitize_trace,
)
from repro.sim import (
    BeaconSpec,
    EnvDatasetBuilder,
    FaultModel,
    MeasurementRecord,
    Simulator,
    degradation_sweep,
)
from repro.types import EnvClass, ImuTrace, LocationEstimate, RssiTrace, Vec2
from repro.world import Floorplan, Trajectory, l_shape, straight_walk
from repro.world.scenarios import SCENARIOS, Scenario, scenario

__version__ = "1.0.0"

__all__ = [
    "DartleRanger", "ProximityEstimator", "ProximityZone",
    "AdaptiveNoiseFilter", "ClusteringCalibrator", "EllipticalEstimator",
    "EnvAwareClassifier", "LocBLE", "Navigator", "ParticleEstimator",
    "BeaconSpec",
    "EnvDatasetBuilder", "FaultModel", "degradation_sweep",
    "EstimateDiagnostics", "SanitizationReport", "check_trace",
    "sanitize_trace", "MeasurementRecord", "Simulator", "EnvClass",
    "ImuTrace", "LocationEstimate", "RssiTrace", "Vec2", "Floorplan",
    "Trajectory", "l_shape", "straight_walk", "SCENARIOS", "Scenario",
    "scenario", "ServiceConfig", "SessionConfig", "SessionState",
    "TrackingService", "TrackingSession",
    "FleetConfig", "ShardRouter", "TrackingFleet",
    "GatewayConfig", "IngestionGateway", "__version__",
]
