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

from repro.exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.dartle": ["DartleRanger"],
    "repro.baselines.particle": ["ParticleEstimator"],
    "repro.baselines.proximity": ["ProximityEstimator", "ProximityZone"],
    "repro.core.anf": ["AdaptiveNoiseFilter"],
    "repro.core.calibration": ["ClusteringCalibrator"],
    "repro.core.estimator": ["EllipticalEstimator"],
    "repro.core.envaware": ["EnvAwareClassifier"],
    "repro.core.pipeline": ["LocBLE"],
    "repro.core.navigation": ["Navigator"],
    "repro.fleet.fleet": ["FleetConfig", "TrackingFleet"],
    "repro.fleet.router": ["ShardRouter"],
    "repro.gateway.gateway": ["GatewayConfig", "IngestionGateway"],
    "repro.service.service": ["ServiceConfig", "TrackingService"],
    "repro.service.session": ["SessionConfig", "TrackingSession"],
    "repro.service.health": ["SessionState"],
    "repro.robustness.diagnostics": ["EstimateDiagnostics"],
    "repro.robustness.sanitize": [
        "SanitizationReport", "check_trace", "sanitize_trace"],
    "repro.sim.simulator": ["BeaconSpec", "MeasurementRecord", "Simulator"],
    "repro.sim.datasets": ["EnvDatasetBuilder"],
    "repro.sim.faults": ["FaultModel", "degradation_sweep"],
    "repro.types": [
        "EnvClass", "ImuTrace", "LocationEstimate", "RssiTrace", "Vec2"],
    "repro.world.floorplan": ["Floorplan"],
    "repro.world.trajectory": ["Trajectory", "l_shape", "straight_walk"],
    "repro.world.scenarios": ["SCENARIOS", "Scenario", "scenario"],
})
__all__.append("__version__")
