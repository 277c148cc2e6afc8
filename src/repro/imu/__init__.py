"""Inertial sensor substrate: gait, gyro, magnetometer, barometer synthesis."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.imu.barometer": [
        "BarometerModel", "altitude_from_pressure", "pressure_at_altitude"],
    "repro.imu.gait": [
        "GaitModel", "step_frequency_for_speed", "step_length_for_frequency"],
    "repro.imu.gyro": ["GyroModel", "TurnEvent"],
    "repro.imu.magnetometer": [
        "MagnetometerModel", "smooth_heading_through_turns"],
    "repro.imu.sensors": ["ImuSynthesizer", "SynthesizedImu"],
})
