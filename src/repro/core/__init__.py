"""The paper's contribution: EnvAware, ANF, estimation, calibration, navigation."""

from repro.core.anf import AdaptiveNoiseFilter
from repro.core.calibration import CalibratedEstimate, ClusteringCalibrator
from repro.core.confidence import estimation_confidence
from repro.core.envaware import EnvAwareClassifier, EnvironmentMonitor, trace_windows
from repro.core.estimator import (
    DEFAULT_N_GRID, EllipticalEstimator, FitRequest, FitResult,
    WarmStartState, fit_batch,
)
from repro.core.features import FEATURE_NAMES, feature_matrix, window_features
from repro.core.navigation import Instruction, Navigator
from repro.core.pipeline import EstimationContext, LocBLE, PreparedEstimate
from repro.core.reporting import SessionReport, session_report
from repro.core.straightwalk import StraightWalkResolver
from repro.core.three_d import Estimator3D, Fit3DResult, Vec3
from repro.core.tracking import BeaconTracker, TrackState

__all__ = [
    "AdaptiveNoiseFilter", "CalibratedEstimate", "ClusteringCalibrator",
    "estimation_confidence", "EnvAwareClassifier", "EnvironmentMonitor",
    "trace_windows", "DEFAULT_N_GRID", "EllipticalEstimator", "FitRequest",
    "FitResult", "WarmStartState", "fit_batch", "FEATURE_NAMES",
    "feature_matrix", "window_features", "Instruction",
    "Navigator", "EstimationContext", "LocBLE", "PreparedEstimate",
    "StraightWalkResolver",
    "SessionReport", "session_report",
    "Estimator3D", "Fit3DResult", "Vec3", "BeaconTracker", "TrackState",
]
