"""Circuit breaker and retry backoff: the stream-clock hold-back reflexes.

* :class:`CircuitBreaker` is a tracking session's one hold-back. It trips
  after ``failure_threshold`` consecutive solve failures, sheds all solve
  work while OPEN, and probes with a single solve once per cooldown
  (HALF_OPEN) until one succeeds. A window short of data is not a failure
  (the session skips it without touching the breaker), so what trips it is
  a solve that fails on data it had: degenerate geometry, a trace the
  sanitizer could not save. The fleet supervisor keeps one per shard too.
* :class:`ExponentialBackoff` spaces out retries of an operation that may
  succeed on its own later: the supervisor's shard restarts and the
  gateway client's send retries.

Both are deterministic: the backoff's jitter is derived from a stable hash
of ``(key, attempt)``, not a live RNG, so a checkpointed owner resumes
with bit-identical retry scheduling. Clocks are the *stream* clock (the
``t`` the owner is stepped with), never wall time.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro import obs
from repro.errors import ConfigurationError, DataQualityError
from repro.service.checkpoint import require_finite, restore_guard

__all__ = [
    "BreakerConfig",
    "BackoffConfig",
    "CircuitBreaker",
    "ExponentialBackoff",
    "MAX_BACKOFF_ATTEMPT",
]

#: Checkpoint schema version for both classes in this module.
BREAKER_CHECKPOINT_FORMAT = 1

#: Failure streaks are clamped here. Every sane config saturates its delay
#: at ``max_s`` orders of magnitude earlier, so the clamp never changes a
#: schedule that matters — it exists because ``factor ** attempt`` in float
#: arithmetic raises :class:`OverflowError` past ``~2**1024`` (attempt
#: ~1025 at the default factor 2.0), i.e. a shard that never recovers
#: would crash its supervisor after a long soak. Past the clamp the delay
#: (including its hash-derived jitter) is frozen at the clamp's value.
MAX_BACKOFF_ATTEMPT = 10_000


def _unit_hash(key: str, attempt: int) -> float:
    """A stable uniform-ish value in [0, 1) from (key, attempt).

    ``blake2b`` rather than ``hash()``: the builtin is salted per process,
    which would make retry schedules differ across a kill-and-resume.
    """
    digest = hashlib.blake2b(
        f"{key}:{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class BackoffConfig:
    """Exponential backoff with deterministic jitter.

    Delay after the ``k``-th consecutive failure is
    ``min(base_s * factor**(k-1), max_s)`` scaled by a jitter factor in
    ``[1 - jitter_frac, 1 + jitter_frac)`` derived from the owner's key.
    """

    base_s: float = 1.0
    factor: float = 2.0
    max_s: float = 30.0
    jitter_frac: float = 0.1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_s) and self.base_s > 0):
            raise ConfigurationError("base_s must be finite and > 0")
        if not (math.isfinite(self.factor) and self.factor >= 1.0):
            raise ConfigurationError("factor must be finite and >= 1")
        if not (math.isfinite(self.max_s) and self.max_s >= self.base_s):
            raise ConfigurationError("max_s must be finite and >= base_s")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ConfigurationError("jitter_frac must be in [0, 1)")


class ExponentialBackoff:
    """Schedules retries after failures on the stream clock."""

    def __init__(self, config: Optional[BackoffConfig] = None, key: str = ""):
        self.config = config or BackoffConfig()
        self.key = key
        self.attempt = 0
        self.next_ready_t: Optional[float] = None

    def ready(self, t: float) -> bool:
        """May a retry run at stream time ``t``?"""
        return self.next_ready_t is None or t >= self.next_ready_t

    def delay_for(self, attempt: int) -> float:
        """The (jittered, capped) delay scheduled after failure ``attempt``.

        Saturation is decided in log space *before* the power is evaluated:
        once ``(attempt - 1) · log(factor)`` provably exceeds
        ``log(max_s / base_s)`` the uncapped delay would only be clamped to
        ``max_s`` anyway, so the overflow-prone ``factor ** (attempt - 1)``
        is never computed for large streaks. Below saturation the original
        expression is evaluated unchanged, keeping historical schedules
        bit-identical.
        """
        cfg = self.config
        attempt = min(attempt, MAX_BACKOFF_ATTEMPT)
        log_factor = math.log(cfg.factor)
        # +1.0 margin: only short-circuit when the uncapped delay exceeds
        # max_s by at least a factor of e, so float rounding near the
        # boundary can never flip a sub-cap delay to the capped value.
        if log_factor > 0.0 and (
            (attempt - 1) * log_factor > math.log(cfg.max_s / cfg.base_s) + 1.0
        ):
            raw = cfg.max_s
        else:
            raw = min(cfg.base_s * cfg.factor ** (attempt - 1), cfg.max_s)
        jitter = 1.0 + cfg.jitter_frac * (2.0 * _unit_hash(self.key, attempt) - 1.0)
        return raw * jitter

    def on_failure(self, t: float) -> float:
        """Record a failure; returns the scheduled delay."""
        self.attempt = min(self.attempt + 1, MAX_BACKOFF_ATTEMPT)
        delay = self.delay_for(self.attempt)
        self.next_ready_t = t + delay
        return delay

    def reset(self) -> None:
        """A success clears the failure streak and any pending delay."""
        self.attempt = 0
        self.next_ready_t = None

    def checkpoint(self) -> Dict[str, Any]:
        return {
            "format": BREAKER_CHECKPOINT_FORMAT,
            "key": self.key,
            "attempt": self.attempt,
            "next_ready_t": self.next_ready_t,
        }

    @classmethod
    def restore(
        cls, cp: Dict[str, Any], config: Optional[BackoffConfig] = None
    ) -> "ExponentialBackoff":
        if not isinstance(cp, dict) or cp.get("format") != BREAKER_CHECKPOINT_FORMAT:
            raise DataQualityError("unsupported backoff checkpoint")
        with restore_guard("backoff"):
            backoff = cls(config, key=str(cp["key"]))
            attempt = int(cp["attempt"])
            if attempt < 0:
                raise DataQualityError(
                    f"backoff checkpoint: attempt must be >= 0, got {attempt}"
                )
            backoff.attempt = min(attempt, MAX_BACKOFF_ATTEMPT)
            backoff.next_ready_t = require_finite(
                "backoff", "next_ready_t", cp["next_ready_t"], allow_none=True
            )
        return backoff


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/cooldown policy for the per-beacon solve circuit breaker.

    ``failure_threshold`` consecutive failures open the circuit
    for ``cooldown_s``; every failed HALF_OPEN probe re-opens it with the
    cooldown escalated by ``cooldown_factor`` (capped at
    ``max_cooldown_s``), so a persistently failing session converges to
    one probe solve per ``max_cooldown_s``.
    """

    failure_threshold: int = 3
    cooldown_s: float = 10.0
    cooldown_factor: float = 2.0
    max_cooldown_s: float = 120.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if not (math.isfinite(self.cooldown_s) and self.cooldown_s > 0):
            raise ConfigurationError("cooldown_s must be finite and > 0")
        if not (math.isfinite(self.cooldown_factor)
                and self.cooldown_factor >= 1.0):
            raise ConfigurationError("cooldown_factor must be >= 1")
        if not (math.isfinite(self.max_cooldown_s)
                and self.max_cooldown_s >= self.cooldown_s):
            raise ConfigurationError("max_cooldown_s must be >= cooldown_s")


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN breaker over consecutive failures."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"
    STATES = (CLOSED, OPEN, HALF_OPEN)

    def __init__(self, config: Optional[BreakerConfig] = None, key: str = ""):
        self.config = config or BreakerConfig()
        self.key = key
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self._opened_t: Optional[float] = None
        self._cooldown_s = self.config.cooldown_s

    def allow(self, t: float) -> bool:
        """May a solve attempt run at stream time ``t``?

        While OPEN, returns False (work is shed) until the cooldown
        elapses, at which point the breaker moves to HALF_OPEN and admits
        a single probe attempt; the probe's outcome (via
        :meth:`record_success` / :meth:`record_failure`) decides whether
        the circuit closes or re-opens.
        """
        if self.state == self.OPEN:
            if t - self._opened_t >= self._cooldown_s:
                self.state = self.HALF_OPEN
                obs.signal("service.breaker_probes", severity="debug",
                           key=self.key, t=t)
                return True
            return False
        return True

    def record_success(self, t: float) -> None:
        """A solve succeeded: close the circuit and reset escalation."""
        self.consecutive_failures = 0
        if self.state != self.CLOSED:
            obs.signal("service.breaker_closes", key=self.key, t=t)
        self.state = self.CLOSED
        self._opened_t = None
        self._cooldown_s = self.config.cooldown_s

    def record_failure(self, t: float) -> bool:
        """A failure at ``t``; returns True if the circuit opened."""
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            # The probe failed: re-open with an escalated cooldown.
            self._cooldown_s = min(
                self._cooldown_s * self.config.cooldown_factor,
                self.config.max_cooldown_s,
            )
            self._open(t)
            return True
        if (self.state == self.CLOSED
                and self.consecutive_failures >= self.config.failure_threshold):
            self._open(t)
            return True
        return False

    def _open(self, t: float) -> None:
        self.state = self.OPEN
        self._opened_t = t
        self.trips += 1
        obs.signal("service.breaker_trips", severity="warning", key=self.key,
                   t=t, consecutive_failures=self.consecutive_failures,
                   cooldown_s=self._cooldown_s)

    # -- persistence ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        return {
            "format": BREAKER_CHECKPOINT_FORMAT,
            "key": self.key,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
            "opened_t": self._opened_t,
            "cooldown_s": self._cooldown_s,
        }

    @classmethod
    def restore(
        cls, cp: Dict[str, Any], config: Optional[BreakerConfig] = None
    ) -> "CircuitBreaker":
        if not isinstance(cp, dict) or cp.get("format") != BREAKER_CHECKPOINT_FORMAT:
            raise DataQualityError("unsupported breaker checkpoint")
        with restore_guard("breaker"):
            if cp["state"] not in cls.STATES:
                raise DataQualityError(
                    f"unknown breaker state {cp['state']!r}"
                )
            breaker = cls(config, key=str(cp["key"]))
            breaker.state = cp["state"]
            breaker.consecutive_failures = int(cp["consecutive_failures"])
            breaker.trips = int(cp["trips"])
            if breaker.consecutive_failures < 0 or breaker.trips < 0:
                raise DataQualityError(
                    "breaker checkpoint: counters must be >= 0"
                )
            breaker._opened_t = require_finite(
                "breaker", "opened_t", cp["opened_t"], allow_none=True
            )
            cooldown = require_finite("breaker", "cooldown_s", cp["cooldown_s"])
            if cooldown <= 0.0:
                raise DataQualityError(
                    f"breaker checkpoint: cooldown_s must be > 0, "
                    f"got {cooldown!r}"
                )
            breaker._cooldown_s = cooldown
            # Cross-field consistency: an OPEN circuit without its opening
            # time would crash the next allow(t) on `t - None`. Reject the
            # checkpoint as data, not at first use.
            if breaker.state == cls.OPEN and breaker._opened_t is None:
                raise DataQualityError(
                    "breaker checkpoint: state 'open' requires opened_t"
                )
        return breaker
