"""Supervised streaming tracking: session lifecycle, breakers, checkpoints.

The temporal half of robustness (see ``docs/streaming.md``): long-lived
per-beacon tracking sessions over incrementally arriving scan/IMU batches,
each with a health state machine (``ACQUIRING → HEALTHY → DEGRADED → STALE
→ LOST``), a per-beacon circuit breaker over solve failures, and
bit-identical checkpoint/restore. Drive it through
:class:`~repro.sim.soak` / ``python -m repro soak`` for long-horizon fault
testing.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.breaker": [
        "BackoffConfig", "BreakerConfig", "CircuitBreaker",
        "ExponentialBackoff"],
    "repro.service.buffers": ["DROP_OLDEST", "BoundedBuffer"],
    "repro.service.health": ["HealthConfig", "HealthMachine", "SessionState"],
    "repro.service.service": ["ServiceConfig", "TrackingService"],
    "repro.service.session": [
        "SessionConfig", "SessionSnapshot", "TrackingSession",
        "default_pipeline_factory"],
})
