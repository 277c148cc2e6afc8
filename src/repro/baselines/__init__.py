"""Comparison baselines: Dartle-style ranging, fingerprinting, proximity zones,
trilateration, and the particle filter."""

from repro.baselines.dartle import DartleRanger
from repro.baselines.fingerprint import DistanceFingerprint, FingerprintLocator
from repro.baselines.particle import ParticleEstimator
from repro.baselines.proximity import ProximityEstimator, ProximityZone
from repro.baselines.trilateration import WalkTrilaterator, trilaterate

__all__ = [
    "DartleRanger", "DistanceFingerprint", "FingerprintLocator",
    "ParticleEstimator", "ProximityEstimator", "ProximityZone",
    "WalkTrilaterator", "trilaterate",
]
