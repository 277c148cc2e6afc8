"""Per-session health state machine for the streaming tracking service.

A long-lived :class:`~repro.service.session.TrackingSession` is never simply
"working" or "broken" — beacons drop out of range for minutes at a time
(the BLEBeacon dataset's multi-minute scan gaps), regressions restart when
EnvAware detects an environment change, and a burst of degraded solves is
routine. The machine below names those regimes explicitly so supervisors,
dashboards and the soak harness can reason about them:

``ACQUIRING → HEALTHY ⇄ DEGRADED → STALE → LOST``

* ``ACQUIRING`` — no accepted fix yet; the session is warming up.
* ``HEALTHY`` — recent full-pipeline fixes of acceptable confidence.
* ``DEGRADED`` — fixes still arrive but are low-confidence, sanitizer-heavy
  or freshly restarted by EnvAware; the track is usable but suspect.
* ``STALE`` — no accepted fix for ``stale_after_s``; the Kalman tracker
  coasts on :meth:`~repro.core.tracking.BeaconTracker.predict`.
* ``LOST`` — stale for ``lost_after_s``; the coasted state is no longer
  meaningful and the track is dropped until re-acquisition.

A good fix re-acquires from any state (LOST included — the state machine
does not latch); time-based decay only ever moves toward ``LOST``. Dwell
time per state is accumulated both locally (checkpointable, reported by the
soak harness) and into :mod:`repro.perf` timers under
``service.dwell.<STATE>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import obs, perf
from repro.errors import ConfigurationError, DataQualityError
from repro.service.checkpoint import restore_guard

__all__ = ["SessionState", "HealthConfig", "HealthMachine"]

#: Checkpoint schema version written by :meth:`HealthMachine.checkpoint`.
HEALTH_CHECKPOINT_FORMAT = 1

#: Transitions retained for reporting; older ones age out deterministically.
MAX_TRANSITIONS = 256


class SessionState:
    """Lifecycle states of one tracking session (string constants)."""

    ACQUIRING = "ACQUIRING"
    HEALTHY = "HEALTHY"
    DEGRADED = "DEGRADED"
    STALE = "STALE"
    LOST = "LOST"

    ALL = (ACQUIRING, HEALTHY, DEGRADED, STALE, LOST)


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds driving the session health machine.

    ``stale_after_s`` is the fix age beyond which a session stops being
    trusted (HEALTHY/DEGRADED → STALE); ``lost_after_s`` the age at which
    the coasted track is dropped entirely (STALE → LOST).
    ``recover_after`` consecutive good fixes take DEGRADED back to HEALTHY
    (re-acquisition from STALE/LOST is immediate — one good fix proves the
    beacon is back).
    """

    stale_after_s: float = 8.0
    lost_after_s: float = 90.0
    recover_after: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.stale_after_s) and self.stale_after_s > 0):
            raise ConfigurationError("stale_after_s must be finite and > 0")
        if not (math.isfinite(self.lost_after_s)
                and self.lost_after_s > self.stale_after_s):
            raise ConfigurationError(
                "lost_after_s must be finite and > stale_after_s"
            )
        if self.recover_after < 1:
            raise ConfigurationError("recover_after must be >= 1")


class HealthMachine:
    """Drives one session's state from fix events and the passage of time.

    Deterministic by construction: transitions depend only on the sequence
    of :meth:`on_fix` / :meth:`on_tick` calls, so a checkpointed machine
    replays bit-identically after :meth:`restore`.
    """

    def __init__(self, config: Optional[HealthConfig] = None, t0: float = 0.0):
        self.config = config or HealthConfig()
        self.state = SessionState.ACQUIRING
        self._entered_t = float(t0)
        self._last_good_t: Optional[float] = None
        self._good_streak = 0
        self._dwell = {s: 0.0 for s in SessionState.ALL}
        self.transitions: List[Tuple[float, str, str]] = []

    # -- events --------------------------------------------------------------

    def on_fix(self, t: float, good: bool) -> None:
        """Record one accepted solve at time ``t``.

        ``good`` means the full pipeline ran at acceptable confidence with
        no fresh EnvAware restart; anything else is a degraded fix.
        """
        if good:
            self._last_good_t = t
            self._good_streak += 1
            if self.state == SessionState.DEGRADED:
                if self._good_streak >= self.config.recover_after:
                    self._transition(t, SessionState.HEALTHY)
            elif self.state != SessionState.HEALTHY:
                self._transition(t, SessionState.HEALTHY)
        else:
            self._good_streak = 0
            if self.state in (SessionState.HEALTHY, SessionState.DEGRADED):
                if self.state == SessionState.HEALTHY:
                    self._transition(t, SessionState.DEGRADED)
            # ACQUIRING / STALE / LOST: a degraded fix neither acquires nor
            # re-acquires — the session keeps waiting for a trustworthy one.

    def on_tick(self, t: float) -> None:
        """Advance time-based decay (call once per service step)."""
        if self._last_good_t is None:
            return  # still acquiring; nothing to go stale from
        age = t - self._last_good_t
        if (self.state in (SessionState.HEALTHY, SessionState.DEGRADED)
                and age > self.config.stale_after_s):
            self._good_streak = 0
            self._transition(t, SessionState.STALE)
        if self.state == SessionState.STALE and age > self.config.lost_after_s:
            self._transition(t, SessionState.LOST)

    def fix_age(self, t: float) -> float:
        """Seconds since the last good fix (inf while acquiring)."""
        if self._last_good_t is None:
            return float("inf")
        return t - self._last_good_t

    def dwell(self, t: Optional[float] = None) -> Dict[str, float]:
        """Accumulated seconds per state; ``t`` adds the open interval."""
        out = dict(self._dwell)
        if t is not None:
            out[self.state] += max(t - self._entered_t, 0.0)
        return out

    # -- persistence ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        return {
            "format": HEALTH_CHECKPOINT_FORMAT,
            "state": self.state,
            "entered_t": self._entered_t,
            "last_good_t": self._last_good_t,
            "good_streak": self._good_streak,
            "dwell": dict(self._dwell),
            "transitions": [list(tr) for tr in self.transitions],
        }

    @classmethod
    def restore(
        cls, cp: Dict[str, Any], config: Optional[HealthConfig] = None
    ) -> "HealthMachine":
        if not isinstance(cp, dict) or cp.get("format") != HEALTH_CHECKPOINT_FORMAT:
            raise DataQualityError("unsupported health-machine checkpoint")
        with restore_guard("health-machine"):
            if cp["state"] not in SessionState.ALL:
                raise DataQualityError(
                    f"unknown session state {cp['state']!r}"
                )
            machine = cls(config)
            machine.state = cp["state"]
            machine._entered_t = float(cp["entered_t"])
            last = cp["last_good_t"]
            machine._last_good_t = None if last is None else float(last)
            machine._good_streak = int(cp["good_streak"])
            machine._dwell = {s: float(cp["dwell"].get(s, 0.0))
                              for s in SessionState.ALL}
            machine.transitions = [
                (float(t), str(a), str(b)) for t, a, b in cp["transitions"]
            ]
        return machine

    # -- internals -----------------------------------------------------------

    def _transition(self, t: float, new_state: str) -> None:
        spent = max(t - self._entered_t, 0.0)
        self._dwell[self.state] += spent
        perf.record(f"service.dwell.{self.state}", spent)
        obs.signal(
            f"service.transitions.{self.state}->{new_state}",
            severity=("warning" if new_state in (SessionState.STALE,
                                                 SessionState.LOST)
                      else "info"),
            t=t,
            dwell_s=spent,
        )
        self.transitions.append((t, self.state, new_state))
        if len(self.transitions) > MAX_TRANSITIONS:
            del self.transitions[: len(self.transitions) - MAX_TRANSITIONS]
        self.state = new_state
        self._entered_t = t
