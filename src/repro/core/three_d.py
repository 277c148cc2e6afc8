"""3-D beacon localisation (the paper's Sec. 9.3 extension, implemented).

"3-D localization can be done by modifying our data fusion and L-shaped
movement" — the model generalises directly:

    RS_i = Γ - 10 n log10(l_i),
    l_i^2 = (x + p_i)^2 + (h + q_i)^2 + (z + r_i)^2,

where ``r_i`` is the observer's relative *elevation* displacement (from the
barometer, :mod:`repro.imu.barometer`). Observability needs the walk to
change elevation — a ramp, stairs, or simply raising the phone — mirroring
how the planar L-walk makes (x, h) observable. Without elevation change, z
is identifiable only up to sign (the 3-D analogue of the Sec. 5.1 mirror),
and the fit reports the ±z pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import N_PRIOR_SIGMA, EllipticalEstimator
from repro.errors import EstimationError, InsufficientDataError

__all__ = ["Fit3DResult", "Estimator3D", "Vec3"]


@dataclass(frozen=True)
class Vec3:
    """A 3-D point/displacement in metres."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def norm(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).norm()

    @property
    def horizontal(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass
class Fit3DResult:
    """Outcome of one 3-D regression."""

    position: Vec3
    n: float
    gamma: float
    residuals: np.ndarray
    mirror_z: Optional[Vec3] = None

    @property
    def rss_rmse(self) -> float:
        return float(np.sqrt(np.mean(self.residuals**2)))


@dataclass
class Estimator3D:
    """Nonlinear 3-D location fit with the 2-D estimator's priors.

    Reuses :class:`EllipticalEstimator`'s prior configuration (Γ and the
    environment-informed exponent) and multi-start strategy, extended with
    the vertical dimension.
    """

    planar: EllipticalEstimator = field(default_factory=EllipticalEstimator)
    min_samples: int = 10
    #: Elevation span below which z is declared unobservable (sign-ambiguous).
    min_elevation_span_m: float = 0.4
    #: Weak vertical prior: indoor beacons sit within a few metres of the
    #: phone's carry height (shelf, wall mount, floor), so a soft pull
    #: toward z = 0 regularises the extra unknown the third dimension adds.
    z_prior: Optional[float] = 0.0
    z_prior_sigma: float = 2.0

    def fit(
        self,
        p: Sequence[float],
        q: Sequence[float],
        r: Sequence[float],
        rss: Sequence[float],
    ) -> Fit3DResult:
        """Fit the beacon's 3-D position from displacements + RSS.

        ``p``/``q`` are the horizontal relative displacements (as in the 2-D
        estimator) and ``r`` the relative elevation displacement (barometer).
        """
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        r = np.asarray(r, dtype=float)
        rss = np.asarray(rss, dtype=float)
        if not (p.shape == q.shape == r.shape == rss.shape) or p.ndim != 1:
            raise EstimationError("p, q, r, rss must be aligned 1-D arrays")
        if len(p) < self.min_samples:
            raise InsufficientDataError(
                f"need >= {self.min_samples} samples, got {len(p)}"
            )
        if float(np.ptp(p)) < 0.2 and float(np.ptp(q)) < 0.2:
            raise InsufficientDataError("observer barely moved horizontally")

        z_observable = float(np.ptp(r)) >= self.min_elevation_span_m

        best = None
        best_cost = math.inf
        for x0, h0, gamma0, n0 in self.planar._initial_candidates(
            p, q, rss, use_q=True
        ):
            for z0 in (0.5, 1.5, -1.0):
                refined = self._refine(p, q, r, rss, x0, h0, z0, gamma0, n0,
                                       z_nonneg=not z_observable)
                if refined is None:
                    continue
                cost = float(np.sum(refined[5] ** 2))
                if cost < best_cost:
                    best_cost = cost
                    best = refined
        if best is None:
            raise EstimationError("no valid 3-D solve found")
        x, h, z, gamma, n, resid = best
        mirror = None
        if not z_observable:
            z = abs(z)
            mirror = Vec3(x, h, -z)
        return Fit3DResult(
            position=Vec3(x, h, z), n=n, gamma=gamma, residuals=resid,
            mirror_z=mirror,
        )

    def _refine(self, p, q, r, rss, x0, h0, z0, gamma0, n0, z_nonneg):
        # Imported here so that ``import repro`` does not load scipy.optimize
        # (~230 ms); only 3-D fits need it.
        from scipy.optimize import least_squares

        planar = self.planar
        root_n = math.sqrt(len(rss))

        def residual_fn(theta):
            x, h, z, gamma, n = theta
            l = np.maximum(
                np.sqrt((x + p) ** 2 + (h + q) ** 2 + (z + r) ** 2), 0.1
            )
            rows = [rss - (gamma - 10.0 * n * np.log10(l))]
            if planar.gamma_prior is not None:
                rows.append(np.array([
                    root_n * (gamma - planar.gamma_prior)
                    / planar.gamma_prior_sigma
                ]))
            if planar.n_prior is not None:
                rows.append(np.array([
                    root_n * (n - planar.n_prior) / N_PRIOR_SIGMA
                ]))
            if self.z_prior is not None:
                rows.append(np.array([
                    root_n * (z - self.z_prior) / self.z_prior_sigma
                ]))
            return np.concatenate(rows)

        lo = np.array([-18.0, -18.0, 0.0 if z_nonneg else -10.0, -95.0, 1.0])
        hi = np.array([18.0, 18.0, 10.0, -25.0, 5.0])
        theta0 = np.clip(np.array([x0, h0, z0, gamma0, n0]),
                         lo + 1e-6, hi - 1e-6)
        try:
            sol = least_squares(residual_fn, theta0, bounds=(lo, hi),
                                max_nfev=250)
        except (ValueError, np.linalg.LinAlgError):
            return None
        x, h, z, gamma, n = (float(v) for v in sol.x)
        return x, h, z, gamma, n, np.asarray(sol.fun)[: len(rss)]
