"""Temporal tracking of a (possibly moving) beacon across measurements.

The paper's title promises locating *and tracking*; its prototype tracks by
re-measuring. This module closes the loop for continuous use: sequential
:class:`~repro.types.LocationEstimate` fixes feed a constant-velocity 2-D
Kalman filter whose measurement covariance comes from each fix's
Gauss–Newton ``position_std`` — so a sharp fix snaps the track while a vague
one barely nudges it. The filter also provides prediction between fixes
(the beacon's believed position while the user is mid-walk).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro import obs, perf
from repro.errors import ConfigurationError, DataQualityError, EstimationError
from repro.types import LocationEstimate, Vec2

__all__ = ["BeaconTracker", "TrackState"]

#: Checkpoint schema version written by :meth:`BeaconTracker.checkpoint`.
TRACKER_CHECKPOINT_FORMAT = 1


@dataclass(frozen=True)
class TrackState:
    """The tracker's belief at some time: position, velocity, uncertainty."""

    time: float
    position: Vec2
    velocity: Vec2
    position_std: float

    @property
    def speed(self) -> float:
        return self.velocity.norm()


@dataclass
class BeaconTracker:
    """Constant-velocity Kalman tracker over location fixes.

    ``process_accel_std`` models how hard the target can manoeuvre
    (m/s^2, white-acceleration model): ~0 for a stationary tag, ~0.5 for a
    carried item, ~1 for a walking person. ``default_fix_std`` is used when
    a fix carries no finite ``position_std``.
    """

    process_accel_std: float = 0.5
    default_fix_std: float = 2.0
    _t: Optional[float] = field(default=None, init=False)
    _x: Optional[np.ndarray] = field(default=None, init=False)  # [x y vx vy]
    _p: Optional[np.ndarray] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.process_accel_std < 0 or self.default_fix_std <= 0:
            raise ConfigurationError("invalid tracker noise parameters")

    @property
    def initialized(self) -> bool:
        return self._x is not None

    def update(self, t: float, estimate: LocationEstimate) -> TrackState:
        """Fuse one location fix taken at time ``t``.

        A non-finite timestamp or fix position is rejected with a typed
        :class:`~repro.errors.DataQualityError` *before* touching any filter
        state — a NaN would otherwise slip past the time-order check (NaN
        comparisons are all False) and permanently poison the state vector.
        """
        if not (isinstance(t, numbers.Real) and math.isfinite(float(t))):
            raise DataQualityError(f"fix timestamp must be finite, got {t!r}")
        t = float(t)
        # Any finite positive real number is a usable std — a plain int, a
        # numpy scalar, a Fraction — not just the builtin float.
        std = estimate.position_std
        std = float(std) if isinstance(std, numbers.Real) else float("nan")
        if not (math.isfinite(std) and std > 0):
            # A fix with no usable uncertainty is fused at the default
            # weight; that substitution changes the track, so count it.
            perf.count("tracking.default_std_substitutions")
            obs.emit(
                "tracking.default_std",
                severity="debug",
                component="tracking",
                given=std,
                substituted=self.default_fix_std,
            )
            std = self.default_fix_std
        r = np.eye(2) * std**2
        z = estimate.position.as_array()
        if not np.all(np.isfinite(z)):
            raise DataQualityError(
                f"fix position must be finite, got {estimate.position}"
            )

        if self._x is None:
            self._t = t
            self._x = np.array([z[0], z[1], 0.0, 0.0])
            # Unknown velocity: generous initial spread.
            self._p = np.diag([std**2, std**2, 1.0, 1.0])
            return self.state()

        if t < self._t:
            raise EstimationError("fixes must arrive in time order")
        self._predict_to(t)
        # Joseph (stabilised) form: the gain solves ``S Kᵀ = H Pᵀ`` rather
        # than inverting S, and the covariance update — algebraically
        # ``(I - KH) P`` — keeps P symmetric positive semi-definite even
        # when S is ill-conditioned.
        x, p = self._x, self._p
        h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        s = h @ p @ h.T + r
        try:
            k = np.linalg.solve(s, h @ p.T).T
        except np.linalg.LinAlgError as exc:
            raise EstimationError(
                f"innovation covariance is singular: {exc}"
            ) from exc
        self._x = x + k @ (z - h @ x)
        i_kh = np.eye(4) - k @ h
        p = i_kh @ p @ i_kh.T + k @ r @ k.T
        self._p = 0.5 * (p + p.T)
        return self.state()

    def predict(self, t: float) -> TrackState:
        """The believed state at time ``t`` (>= the last fix) without mutating."""
        if not (isinstance(t, numbers.Real) and math.isfinite(float(t))):
            raise DataQualityError(
                f"prediction time must be finite, got {t!r}"
            )
        t = float(t)
        if self._x is None:
            raise EstimationError("tracker has no fixes yet")
        if t < self._t:
            raise EstimationError("cannot predict into the past")
        dt = t - self._t
        f = self._transition(dt)
        x = f @ self._x
        p = f @ self._p @ f.T + self._process_noise(dt)
        return TrackState(
            time=t,
            position=Vec2(float(x[0]), float(x[1])),
            velocity=Vec2(float(x[2]), float(x[3])),
            position_std=float(math.sqrt(max(p[0, 0] + p[1, 1], 0.0))),
        )

    def state(self) -> TrackState:
        """The belief at the last processed fix time."""
        if self._x is None:
            raise EstimationError("tracker has no fixes yet")
        return TrackState(
            time=self._t,
            position=Vec2(float(self._x[0]), float(self._x[1])),
            velocity=Vec2(float(self._x[2]), float(self._x[3])),
            position_std=float(
                math.sqrt(max(self._p[0, 0] + self._p[1, 1], 0.0))
            ),
        )

    # -- persistence ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Serialize the complete filter state as a JSON-safe dict.

        Floats survive a ``json.dumps``/``loads`` round trip bit-exactly
        (shortest-repr encoding), so :meth:`restore` continues the track
        bit-identically after a process kill-and-resume.
        """
        return {
            "format": TRACKER_CHECKPOINT_FORMAT,
            "process_accel_std": self.process_accel_std,
            "default_fix_std": self.default_fix_std,
            "t": self._t,
            "x": self._x.tolist() if self._x is not None else None,
            "p": self._p.tolist() if self._p is not None else None,
        }

    @classmethod
    def restore(cls, cp: Dict[str, Any]) -> "BeaconTracker":
        """Rebuild a tracker from a :meth:`checkpoint` dict."""
        if not isinstance(cp, dict) or cp.get("format") != TRACKER_CHECKPOINT_FORMAT:
            found = cp.get("format") if isinstance(cp, dict) else cp
            raise DataQualityError(
                "unsupported tracker checkpoint: expected format "
                f"{TRACKER_CHECKPOINT_FORMAT}, got {found!r}"
            )
        tracker = cls(
            process_accel_std=float(cp["process_accel_std"]),
            default_fix_std=float(cp["default_fix_std"]),
        )
        if cp["x"] is not None:
            x = np.array(cp["x"], dtype=float)
            p = np.array(cp["p"], dtype=float)
            t = cp["t"]
            if x.shape != (4,) or p.shape != (4, 4) or t is None:
                raise DataQualityError("malformed tracker checkpoint state")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))
                    and math.isfinite(float(t))):
                raise DataQualityError("tracker checkpoint contains non-finite state")
            tracker._t = float(t)
            tracker._x = x
            tracker._p = p
        return tracker

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _transition(dt: float) -> np.ndarray:
        f = np.eye(4)
        f[0, 2] = dt
        f[1, 3] = dt
        return f

    def _process_noise(self, dt: float) -> np.ndarray:
        # White-acceleration (piecewise constant) model.
        q = self.process_accel_std**2
        dt2, dt3, dt4 = dt * dt, dt**3, dt**4
        qm = np.array([
            [dt4 / 4.0, 0.0, dt3 / 2.0, 0.0],
            [0.0, dt4 / 4.0, 0.0, dt3 / 2.0],
            [dt3 / 2.0, 0.0, dt2, 0.0],
            [0.0, dt3 / 2.0, 0.0, dt2],
        ])
        return q * qm

    def _predict_to(self, t: float) -> None:
        dt = t - self._t
        f = self._transition(dt)
        self._x = f @ self._x
        self._p = f @ self._p @ f.T + self._process_noise(dt)
        self._t = t
