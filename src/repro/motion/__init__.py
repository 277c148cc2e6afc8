"""Dead reckoning: step/turn detection and 2-D motion tracking."""

from repro.motion.deadreckoning import MotionTrack, MotionTracker
from repro.motion.headingfusion import ComplementaryHeadingFilter
from repro.motion.stepcounter import DetectedStep, StepDetector
from repro.motion.steplength import StepLengthModel, walking_distance
from repro.motion.turndetector import DetectedTurn, TurnDetector

__all__ = [
    "ComplementaryHeadingFilter",
    "MotionTrack", "MotionTracker", "DetectedStep", "StepDetector",
    "StepLengthModel", "walking_distance", "DetectedTurn", "TurnDetector",
]
