"""Dead reckoning: step/turn detection and 2-D motion tracking."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.motion.deadreckoning": ["MotionTrack", "MotionTracker"],
    "repro.motion.headingfusion": ["ComplementaryHeadingFilter"],
    "repro.motion.stepcounter": ["DetectedStep", "StepDetector"],
    "repro.motion.steplength": ["StepLengthModel", "walking_distance"],
    "repro.motion.turndetector": ["DetectedTurn", "TurnDetector"],
})
