"""Common value types shared across the library.

These are deliberately small, immutable-ish dataclasses: samples, traces and
estimates that flow between the simulator substrate and the LocBLE core.
Positions use metres in a 2-D plane; timestamps are seconds from the start of
a measurement; RSSI is in dBm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Vec2",
    "RssiSample",
    "ImuSample",
    "RssiTrace",
    "ImuTrace",
    "MotionSegment",
    "LocationEstimate",
    "EnvClass",
    "wrap_angle",
]


class EnvClass:
    """Propagation environment classes recognised by EnvAware (Sec. 4.1).

    ``LOS``: unobstructed direct path. ``P_LOS``: blocked by a low-attenuation
    obstacle (glass, wooden door, human body). ``NLOS``: blocked by a
    high-attenuation obstacle (concrete/cinder wall, metal board).
    """

    LOS = "LOS"
    P_LOS = "P_LOS"
    NLOS = "NLOS"

    ALL = (LOS, P_LOS, NLOS)


@dataclass(frozen=True)
class Vec2:
    """A 2-D point or displacement in metres."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Z-component of the 3-D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Vec2":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalise the zero vector")
        return Vec2(self.x / n, self.y / n)

    def rotated(self, angle_rad: float) -> "Vec2":
        """Rotate counter-clockwise by ``angle_rad`` radians."""
        c, s = math.cos(angle_rad), math.sin(angle_rad)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def heading(self) -> float:
        """Angle of this vector from the +x axis, in radians (-pi, pi]."""
        return math.atan2(self.y, self.x)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    @staticmethod
    def from_array(a: Sequence[float]) -> "Vec2":
        return Vec2(float(a[0]), float(a[1]))

    @staticmethod
    def from_polar(r: float, angle_rad: float) -> "Vec2":
        return Vec2(r * math.cos(angle_rad), r * math.sin(angle_rad))


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


@dataclass(frozen=True)
class RssiSample:
    """One received advertisement: when, how strong, from whom, on what channel."""

    timestamp: float
    rssi: float
    beacon_id: str = "beacon-0"
    channel: int = 37


@dataclass(frozen=True)
class ImuSample:
    """One inertial reading in the earth frame (after coordinate alignment).

    ``accel`` is the user-acceleration magnitude signal used for step
    detection (gravity removed), ``gyro_z`` the yaw-rate (rad/s) and
    ``mag_heading`` the magnetic heading in radians.
    """

    timestamp: float
    accel: float
    gyro_z: float
    mag_heading: float


@dataclass
class RssiTrace:
    """A time-ordered RSSI sequence for a single beacon.

    ``arrays`` is an optional read-only ``(timestamps, values)`` pair of
    ``samples``, handed over by a builder that already made it
    (:func:`repro.robustness.sanitize_trace` does); :meth:`timestamps` and
    :meth:`values` return it while ``samples`` keeps its length and build
    fresh arrays otherwise, so a builder hands it over only for samples it
    will not change.
    """

    samples: List[RssiSample] = field(default_factory=list)
    arrays: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def beacon_id(self) -> str:
        if not self.samples:
            raise ValueError("empty trace has no beacon id")
        return self.samples[0].beacon_id

    def _array(self, i: int) -> Optional[np.ndarray]:
        if self.arrays is None or len(self.arrays[i]) != len(self.samples):
            return None
        return self.arrays[i]

    def timestamps(self) -> np.ndarray:
        cached = self._array(0)
        if cached is not None:
            return cached
        return np.array([s.timestamp for s in self.samples], dtype=float)

    def values(self) -> np.ndarray:
        cached = self._array(1)
        if cached is not None:
            return cached
        return np.array([s.rssi for s in self.samples], dtype=float)

    def duration(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return self.samples[-1].timestamp - self.samples[0].timestamp

    def mean_rate_hz(self) -> float:
        """Average sampling frequency of the trace."""
        d = self.duration()
        if d <= 0.0:
            return 0.0
        return (len(self.samples) - 1) / d

    def slice_time(self, t0: float, t1: float) -> "RssiTrace":
        """Samples with ``t0 <= timestamp < t1`` as a new trace."""
        return RssiTrace([s for s in self.samples if t0 <= s.timestamp < t1])

    def truncated_fraction(self, fraction: float) -> "RssiTrace":
        """Keep the first ``fraction`` of samples (Fig. 13b walk-length sweep)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        n = max(1, int(round(len(self.samples) * fraction)))
        return RssiTrace(list(self.samples[:n]))

    @staticmethod
    def from_arrays(
        timestamps: Iterable[float],
        rssi: Iterable[float],
        beacon_id: str = "beacon-0",
        channels: Optional[Iterable[int]] = None,
    ) -> "RssiTrace":
        ts = list(timestamps)
        vs = list(rssi)
        if len(ts) != len(vs):
            raise ValueError("timestamps and rssi must have equal length")
        chs = list(channels) if channels is not None else [37] * len(ts)
        return RssiTrace(
            [
                RssiSample(float(t), float(v), beacon_id, int(c))
                for t, v, c in zip(ts, vs, chs)
            ]
        )


@dataclass
class ImuTrace:
    """A time-ordered IMU sequence.

    Each column (:meth:`timestamps`, :meth:`accel`, :meth:`gyro_z`,
    :meth:`mag_heading`) is built from ``samples`` once, on first use, and
    returned read-only while ``samples`` keeps its length, as
    :class:`RssiTrace` keeps the arrays a builder hands over.
    """

    samples: List[ImuSample] = field(default_factory=list)
    _columns: Dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def _column(self, name: str) -> np.ndarray:
        col = self._columns.get(name)
        if col is None or len(col) != len(self.samples):
            col = np.fromiter(map(attrgetter(name), self.samples),
                              dtype=float, count=len(self.samples))
            col.flags.writeable = False
            self._columns[name] = col
        return col

    def timestamps(self) -> np.ndarray:
        return self._column("timestamp")

    def accel(self) -> np.ndarray:
        return self._column("accel")

    def gyro_z(self) -> np.ndarray:
        return self._column("gyro_z")

    def mag_heading(self) -> np.ndarray:
        return self._column("mag_heading")

    def rate_hz(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        d = self.samples[-1].timestamp - self.samples[0].timestamp
        return (len(self.samples) - 1) / d if d > 0 else 0.0


@dataclass(frozen=True)
class MotionSegment:
    """Observer displacement over a time interval, from dead reckoning.

    ``displacement`` is expressed in the measurement coordinate frame whose
    origin is the observer's start point and whose +x axis is the observer's
    initial walking direction (the frame of Fig. 6).
    """

    t_start: float
    t_end: float
    displacement: Vec2

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class LocationEstimate:
    """A 2-D beacon location estimate with its confidence (Sec. 5).

    ``position`` is in the measurement frame; ``confidence`` in [0, 1] derives
    from the residual-Gaussian test of Sec. 5 ("Estimation confidence");
    ``gamma`` and ``n`` are the fitted path-loss parameters; ``ambiguous``
    lists alternative mirror solutions not yet ruled out. ``diagnostics``
    (a :class:`repro.robustness.EstimateDiagnostics`, kept untyped here to
    avoid a base-module dependency) is populated by the robust estimation
    path to explain degraded, low-confidence results.
    """

    position: Vec2
    confidence: float = 1.0
    gamma: float = float("nan")
    n: float = float("nan")
    environment: str = EnvClass.LOS
    ambiguous: Tuple[Vec2, ...] = ()
    position_std: float = float("nan")
    diagnostics: Optional[object] = None

    def distance(self) -> float:
        """Estimated range from the observer's origin to the beacon."""
        return self.position.norm()

    def error_to(self, truth: Vec2) -> float:
        """Euclidean estimation error against a ground-truth position."""
        return self.position.distance_to(truth)
