"""Supervised streaming tracking: session lifecycle, breakers, checkpoints.

The temporal half of robustness (see ``docs/streaming.md``): long-lived
per-beacon tracking sessions over incrementally arriving scan/IMU batches,
each with a health state machine (``ACQUIRING → HEALTHY → DEGRADED → STALE
→ LOST``), a per-beacon circuit breaker over solve failures, and
bit-identical checkpoint/restore. Drive it through
:class:`~repro.sim.soak` / ``python -m repro soak`` for long-horizon fault
testing.
"""

from repro.service.breaker import (
    BackoffConfig,
    BreakerConfig,
    CircuitBreaker,
    ExponentialBackoff,
)
from repro.service.buffers import DROP_OLDEST, BoundedBuffer
from repro.service.health import HealthConfig, HealthMachine, SessionState
from repro.service.service import ServiceConfig, TrackingService
from repro.service.session import (
    SessionConfig,
    SessionSnapshot,
    TrackingSession,
    default_pipeline_factory,
)

__all__ = [
    "BackoffConfig",
    "BreakerConfig",
    "CircuitBreaker",
    "ExponentialBackoff",
    "DROP_OLDEST",
    "BoundedBuffer",
    "HealthConfig",
    "HealthMachine",
    "SessionState",
    "ServiceConfig",
    "TrackingService",
    "SessionConfig",
    "SessionSnapshot",
    "TrackingSession",
    "default_pipeline_factory",
]
