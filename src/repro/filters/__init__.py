"""Signal-processing substrate: Butterworth, Kalman/AKF, smoothing."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.filters.butterworth": [
        "ButterworthLowPass", "butter_lowpass_sos", "sos_filter"],
    "repro.filters.kalman": [
        "AdaptiveKalman", "ScalarKalman", "adaptive_kalman_fuse"],
    "repro.filters.smoothing": [
        "differentiate", "moving_average", "moving_median"],
})
