"""Trace generation: measurement simulation, datasets, persistence."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.datasets": [
        "EnvDatasetBuilder", "LabeledWindow", "windows_from_trace"],
    "repro.sim.faults": [
        "FaultModel", "degradation_sweep", "inject_bursty_loss",
        "inject_clock_faults", "inject_nonfinite", "inject_outages",
        "inject_spikes"],
    "repro.sim.montecarlo": [
        "TrialSummary", "empirical_cdf", "stationary_trials", "summarize"],
    "repro.sim.load": ["LoadConfig", "LoadStream", "generate_load"],
    "repro.sim.parallel": ["TrialResult", "effective_workers", "run_trials"],
    "repro.sim.simulator": ["BeaconSpec", "MeasurementRecord", "Simulator"],
    "repro.sim.soak": ["SoakConfig", "SoakResult", "long_walk", "run_soak"],
    "repro.sim.simulator3d": ["Measurement3D", "Simulator3D", "ramp_profile"],
    "repro.sim.traces": [
        "imu_trace_from_dict", "imu_trace_to_dict", "load_session",
        "rssi_trace_from_dict", "rssi_trace_to_dict", "save_session"],
})
