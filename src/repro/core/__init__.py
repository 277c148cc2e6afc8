"""The paper's contribution: EnvAware, ANF, estimation, calibration, navigation."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.anf": ["AdaptiveNoiseFilter"],
    "repro.core.calibration": ["CalibratedEstimate", "ClusteringCalibrator"],
    "repro.core.confidence": ["estimation_confidence"],
    "repro.core.envaware": [
        "EnvAwareClassifier", "EnvironmentMonitor", "trace_windows"],
    "repro.core.estimator": [
        "DEFAULT_N_GRID", "EllipticalEstimator", "FitRequest", "FitResult",
        "WarmStartState", "fit_batch"],
    "repro.core.features": [
        "FEATURE_NAMES", "feature_matrix", "window_features"],
    "repro.core.navigation": ["Instruction", "Navigator"],
    "repro.core.pipeline": ["EstimationContext", "LocBLE", "PreparedEstimate"],
    "repro.core.reporting": ["SessionReport", "session_report"],
    "repro.core.straightwalk": ["StraightWalkResolver"],
    "repro.core.three_d": ["Estimator3D", "Fit3DResult", "Vec3"],
    "repro.core.tracking": ["BeaconTracker", "TrackState"],
})
