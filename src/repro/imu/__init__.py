"""Inertial sensor substrate: gait, gyro, magnetometer, barometer synthesis."""

from repro.imu.barometer import (
    BarometerModel, altitude_from_pressure, pressure_at_altitude,
)
from repro.imu.gait import (
    GaitModel, step_frequency_for_speed, step_length_for_frequency,
)
from repro.imu.gyro import GyroModel, TurnEvent
from repro.imu.magnetometer import MagnetometerModel, smooth_heading_through_turns
from repro.imu.sensors import ImuSynthesizer, SynthesizedImu

__all__ = [
    "GaitModel", "step_frequency_for_speed", "step_length_for_frequency",
    "GyroModel", "TurnEvent", "MagnetometerModel",
    "smooth_heading_through_turns", "ImuSynthesizer", "SynthesizedImu",
    "BarometerModel", "altitude_from_pressure", "pressure_at_altitude",
]
