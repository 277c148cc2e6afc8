"""Input validation and fault tolerance for the RSS->location pipeline."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.robustness.diagnostics": ["EstimateDiagnostics"],
    "repro.robustness.sanitize": [
        "DEFAULT_GAP_FACTOR", "RSSI_PLAUSIBLE_DBM", "SanitizationReport",
        "check_trace", "robust_rate_hz", "sanitize_trace"],
})
