"""Comparison baselines: Dartle-style ranging, fingerprinting, proximity zones,
trilateration, and the particle filter."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.dartle": ["DartleRanger"],
    "repro.baselines.fingerprint": [
        "DistanceFingerprint", "FingerprintLocator"],
    "repro.baselines.particle": ["ParticleEstimator"],
    "repro.baselines.proximity": ["ProximityEstimator", "ProximityZone"],
    "repro.baselines.trilateration": ["WalkTrilaterator", "trilaterate"],
})
