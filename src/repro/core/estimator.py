"""Elliptical-regression location estimation (Sec. 5 of the paper).

The estimator fuses observer (and optionally target) displacement with RSS
through the environment-parameterised log-distance model:

    RS_i = Γ(e) - 10 n(e) log10(l_i),
    l_i^2 = (x + p_i)^2 + (h + q_i)^2,

where ``(x, h)`` is the unknown beacon position in the measurement frame and
``p_i = b_i - a_i``, ``q_i = d_i - c_i`` are the known relative
displacements. Substituting the model and writing ``ε = 10^(Γ/(5n))``,
``η = 10^(-1/(5n))`` linearises to the paper's elliptical form (Eq. 2/3):

    p² + q² + 2 x p + 2 h q + (x² + h²) = ε · η^RS.

For a *fixed* path-loss exponent ``n``, the right side is a known regressor
``y_i = 10^(-RS_i / (5 n))`` scaled by the unknown ``ε``, so
``(x, h, g = x²+h², ε)`` solve a linear least-squares system (Eq. 4). The
exponent itself cannot be isolated (η contains n), so — exactly as the
paper's Eq. 5 — we search a grid of candidate exponents and keep the one
minimising the RSS-domain residual. No constant (Γ, n) is ever assumed:
both are estimated per regression, which is the paper's key departure from
fixed-parameter rangers.

The linearised solve only seeds the refinement (:func:`_vp_kernel`),
which minimises the RSS-domain residuals of the model directly. The
model is linear in ``(Γ, n)``, so the refinement iterates only ``(x, h)``
and solves ``(Γ, n)`` in closed form at every trial position.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs, perf
from repro.channel.pathloss import MIN_DISTANCE_M, rss_at
from repro.errors import (
    DataQualityError,
    DegenerateGeometryError,
    EstimationError,
    InsufficientDataError,
    ReproError,
)
from repro.types import Vec2

__all__ = [
    "FitResult",
    "FitRequest",
    "WarmStartState",
    "EllipticalEstimator",
    "fit_batch",
    "DEFAULT_N_GRID",
]

#: Candidate path-loss exponents searched by Eq. 5's arg-min. Spans every
#: class in :data:`repro.channel.pathloss.ENV_EXPONENTS` with margin.
#: Read-only: every estimator shares it.
DEFAULT_N_GRID: np.ndarray = np.arange(1.2, 4.51, 0.05)
DEFAULT_N_GRID.flags.writeable = False

#: Fewer matched (displacement, RSS) points than this is refused: the linear
#: system has 4 unknowns and noise demands real redundancy.
MIN_SAMPLES = 8

#: Strength (one standard deviation) of the per-environment exponent prior.
N_PRIOR_SIGMA = 0.5

#: Warm-start acceptance: a warm fit whose RSS-domain RMSE exceeds
#: ``max(WARM_BLOWUP * previous_rmse, WARM_FLOOR_DB)`` is rejected (the
#: environment likely changed under the tracker) and the cold full-grid
#: path re-runs, emitting a ``solver.warm_rejected`` event.
WARM_BLOWUP = 2.0
WARM_FLOOR_DB = 4.0

#: The spread of exponents whose linearised solutions seed a cold fit.
_SEED_N_GRID = DEFAULT_N_GRID[::len(DEFAULT_N_GRID) // 8]

#: Natural log of 10, shared by the analytic Jacobian.
_LN10 = math.log(10.0)

#: Bound on |x| and |h| (metres). BLE's usable sensing range is ~15 m
#: (Sec. 7.5): beyond it the advertisements would not decode, so a
#: solution out there is an artefact of a flat likelihood.
_XY_MAX = 18.0

#: The box of the path-loss parameters, ``(low, high)`` of Γ (dBm) in row
#: 0 and of the exponent n in row 1.
_GN_BOX = np.array([[-95.0, -25.0], [1.0, 5.0]])
_GN_BOX.flags.writeable = False

#: Two LM rows of one job whose ``(x, h)`` differ by at most this much
#: (metres) in each coordinate have met: the higher-cost one freezes,
#: since it would only retrace the other's path to the same optimum.
_MERGE_TOL = 0.01

#: An accepted LM step that moves a row by at most this much (metres) in
#: each coordinate ends the row: it has stopped moving, although its cost
#: can keep falling by more than the relative-gain rule's 1e-10.
_STEP_TOL = 1e-3

#: The least distance (metres) a straight-leg seed starts off the walk
#: line, the kernel's distance clamp. On a straight leg the residuals are
#: symmetric in h, so at h = 0 their h-derivative is exactly 0 and the LM
#: step could never leave the line.
_H_MIN = 0.1

#: One ``(x, h, Γ, n)`` starting point. The planar solve refines only
#: its ``(x, h)``; the 3-D one (:mod:`repro.core.three_d`) all four.
Seed = Tuple[float, float, float, float]


@dataclass(frozen=True)
class WarmStartState:
    """The previous fix's solution, carried forward to warm-start the next.

    Consecutive tracking windows overlap almost entirely, so the previous
    window's ``(x, h)`` is an excellent seed for the next solve — the warm
    path refines that one point instead of re-running the full
    exponent-grid cold start; ``(Γ, n)`` follow from the position in
    closed form. ``rss_rmse`` is the residual scale the warm fit is judged
    against (a blow-up means the environment changed and the warm basin
    is stale); ``stream_t`` lets streaming callers age warm states out.

    ``(x, h)`` lives in its window's measurement frame, whose origin and
    +x axis move with the walk from one window to the next. ``ref_t`` and
    the observer pose ``(ref_x, ref_y, ref_heading)`` at that time, in the
    same frame, let the next window carry the seed into its own frame
    (:meth:`reanchored`); they are ``None`` when no pose was recorded.

    The state is JSON-serialisable (:meth:`to_dict`/:meth:`from_dict`) and
    round-trips bit-identically, so it survives session checkpoints.
    """

    x: float
    h: float
    gamma: float
    n: float
    rss_rmse: float
    cov_status: str = "none"
    n_rows: int = 0
    use_q: bool = True
    stream_t: Optional[float] = None
    ref_t: Optional[float] = None
    ref_x: Optional[float] = None
    ref_y: Optional[float] = None
    ref_heading: Optional[float] = None

    def at_pose(self, t: float, position: Vec2,
                heading: float) -> "WarmStartState":
        """This state with the observer's pose at time ``t`` recorded."""
        return dataclasses.replace(
            self, ref_t=float(t), ref_x=float(position.x),
            ref_y=float(position.y), ref_heading=float(heading))

    def reanchored(self, position: Vec2, heading: float) -> "WarmStartState":
        """The state in a frame where the observer's pose at ``ref_t`` is
        ``(position, heading)``.

        ``(x, h)`` keeps its place in the observer's body frame at
        ``ref_t``: it is rotated by the heading difference about the
        recorded position and moved to the new one.
        """
        dx, dy = self.x - self.ref_x, self.h - self.ref_y
        turn = heading - self.ref_heading
        c, s = math.cos(turn), math.sin(turn)
        return dataclasses.replace(
            self.at_pose(self.ref_t, position, heading),
            x=float(position.x) + c * dx - s * dy,
            h=float(position.y) + s * dx + c * dy)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "WarmStartState":
        """Rebuild a state; one written before the pose fields existed
        restores without a pose."""

        def opt(key: str) -> Optional[float]:
            return None if d.get(key) is None else float(d[key])

        return cls(
            x=float(d["x"]),
            h=float(d["h"]),
            gamma=float(d["gamma"]),
            n=float(d["n"]),
            rss_rmse=float(d["rss_rmse"]),
            cov_status=str(d["cov_status"]),
            n_rows=int(d["n_rows"]),
            use_q=bool(d["use_q"]),
            stream_t=opt("stream_t"),
            ref_t=opt("ref_t"),
            ref_x=opt("ref_x"),
            ref_y=opt("ref_y"),
            ref_heading=opt("ref_heading"),
        )


@dataclass
class FitResult:
    """Outcome of one elliptical regression.

    ``position`` is the beacon estimate in the measurement frame; ``mirror``
    the symmetric alternative when the movement cannot break the symmetry
    (straight-leg case, Sec. 5.1); ``gamma``/``n`` the fitted path-loss
    parameters; ``residuals`` the per-sample RSS-domain residuals δRS used
    for the estimation confidence.

    The solver-provenance fields feed :class:`repro.obs.FixProvenance`:
    ``solver`` names the path that produced the fit, ``n_candidates`` how
    many initial seeds it refined, ``cov_cond`` the condition number of the
    Gauss-Newton normal matrix and ``cov_status`` how the position
    covariance was obtained — ``"ok"`` (trusted), ``"capped"`` (finite but
    clipped to the 25 m ceiling), ``"rank-deficient"`` (unobservable
    geometry, std forced to the ceiling), ``"error"`` (factorisation
    failed), or ``"none"`` (solver computes no covariance).
    """

    position: Vec2
    n: float
    gamma: float
    epsilon: float
    residuals: np.ndarray
    mirror: Optional[Vec2] = None
    g: float = float("nan")
    position_std: float = float("nan")
    solver: str = "none"
    n_candidates: int = 0
    cov_cond: Optional[float] = None
    cov_status: str = "none"
    #: Whether this fit was produced by the warm-start fast path, and the
    #: state the *next* overlapping-window fit should warm-start from.
    warm_started: bool = False
    warm: Optional[WarmStartState] = None

    @property
    def rss_rmse(self) -> float:
        return float(np.sqrt(np.mean(self.residuals**2)))


@dataclass
class EllipticalEstimator:
    """Least-squares solver for the paper's elliptical regression.

    Two soft priors regularise the otherwise ill-posed four-parameter fit —
    this is where EnvAware's output enters the estimation (Sec. 4.1: the
    recognised environment "allows LocBLE to adjust the following location
    estimation"):

    * ``n_prior`` (per environment class: LOS links fit exponents near free
      space, NLOS links fit steeper ones) with strength
      :data:`N_PRIOR_SIGMA`;
    * ``gamma_prior``: beacons advertise their calibrated 1 m power in the
      packet (iBeacon "measured power", Eddystone tx-at-0m), so Γ is known
      up to the receiving chipset's offset — ``gamma_prior_sigma`` defaults
      to the ±5 dB class accuracy of Sec. 2.4.

    Priors enter the Gauss–Newton objective as extra residual rows, so they
    bend — they never clamp — the estimate.
    """

    gamma_prior: Optional[float] = -59.0
    gamma_prior_sigma: float = 5.0
    n_prior: Optional[float] = None
    #: With ``refine=False`` the estimator stops at the paper's linearised
    #: grid + least-squares solve (Eq. 4/5) — no Gauss-Newton polish, no
    #: priors. That solver carries the measurement noise inside its
    #: ``eta^RS`` regressor (an errors-in-variables setup), which is exactly
    #: why the paper's ANF smoothing is critical for it; see the Fig. 5
    #: bench's two-solver comparison.
    refine: bool = True

    #: Per-environment exponent priors (centres of the class ranges in
    #: :data:`repro.channel.pathloss.ENV_EXPONENTS`).
    ENV_N_PRIORS = {"LOS": 1.95, "P_LOS": 2.25, "NLOS": 2.6}

    #: Per-environment Γ-prior adjustment. A blocked classification means a
    #: blocker sits in the path subtracting its insertion loss from every
    #: reading, so the effective 1 m reference level the data follows is the
    #: advertised power *minus* a typical blocker loss (Sec. 4.1's material
    #: classes: a few dB for p-LOS glass/wood/body, >10 dB for NLOS
    #: concrete/metal). Shifting the prior centre accordingly — and widening
    #: it, since the exact blocker is unknown — is how the recognised class
    #: "adjusts the following location estimation". Without the shift a
    #: tight Γ prior drags every NLOS estimate short by the same factor,
    #: which also defeats the multi-beacon calibration's error averaging.
    ENV_GAMMA_SHIFTS = {"LOS": 0.0, "P_LOS": -4.5, "NLOS": -12.0}
    ENV_GAMMA_SIGMAS = {"LOS": 5.0, "P_LOS": 6.5, "NLOS": 8.0}

    def with_environment(self, env_class: str) -> "EllipticalEstimator":
        """A copy of this estimator whose priors match the environment class."""
        if env_class not in self.ENV_N_PRIORS:
            raise EstimationError(f"unknown environment class {env_class!r}")
        gamma_prior = self.gamma_prior
        if gamma_prior is not None:
            gamma_prior = gamma_prior + self.ENV_GAMMA_SHIFTS[env_class]
        return dataclasses.replace(
            self,
            n_prior=self.ENV_N_PRIORS[env_class],
            gamma_prior=gamma_prior,
            gamma_prior_sigma=self.ENV_GAMMA_SIGMAS[env_class],
        )

    @perf.profiled("estimator.EllipticalEstimator.fit")
    def fit(
        self,
        p: Sequence[float],
        q: Sequence[float],
        rss: Sequence[float],
        warm: Optional[WarmStartState] = None,
    ) -> FitResult:
        """Joint fit over both axes (L-shaped or richer movement).

        ``p``/``q`` are the relative displacements (target minus observer;
        for a stationary target simply the negated observer movement) and
        ``rss`` the time-aligned filtered RSS readings.

        When ``warm`` carries a usable previous solution the fast path
        refines its position directly (one seed) instead of re-running
        the full cold grid; a warm fit whose residuals blow up or that
        ends on the ±18 m position bound is rejected — emitting
        ``solver.warm_rejected`` — and the cold path re-runs, so a stale
        warm state can degrade latency but never accuracy.

        This is a batch of one through the same code :func:`fit_batch`
        runs, so a request returns bit-identical results either way.
        """
        p, q, rss = self._validate(p, q, rss)
        job = _Job(self, p, q, rss, _uses_q(q), warm)
        return _solve_jobs([job], return_exceptions=False)[0]

    def fit_batch(
        self,
        requests: Sequence["FitRequest"],
        return_exceptions: bool = False,
    ) -> List[Union[FitResult, BaseException]]:
        """Solve many independent fits, batching their warm-start kernels.

        See the module-level :func:`fit_batch`; this estimator is used for
        any request that does not carry its own.
        """
        return fit_batch(requests, default_estimator=self,
                         return_exceptions=return_exceptions)

    def fit_leg(
        self, a: Sequence[float], rss: Sequence[float]
    ) -> Tuple[FitResult, FitResult]:
        """Single-straight-leg fit (observer moved ``a`` metres along +x).

        Returns the two symmetric solutions ``(x, +h)`` and ``(x, -h)`` in
        the leg's local frame — the raw material of Sec. 5.1's
        disambiguation.
        """
        a = np.asarray(a, dtype=float)
        job = _Job(self, -a, np.zeros_like(a), np.asarray(rss, float),
                   use_q=False, warm=None)
        res = _solve_jobs([job], return_exceptions=False)[0]
        mirror_warm = (dataclasses.replace(res.warm, h=-res.warm.h)
                       if res.warm is not None else None)
        mirror_res = dataclasses.replace(
            res,
            position=res.mirror,
            mirror=res.position,
            warm=mirror_warm,
        )
        return res, mirror_res

    # -- internals ---------------------------------------------------------

    def _validate(self, p, q, rss) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        rss = np.asarray(rss, dtype=float)
        if not (p.shape == q.shape == rss.shape) or p.ndim != 1:
            raise EstimationError("p, q and rss must be aligned 1-D arrays")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))
                and np.all(np.isfinite(rss))):
            raise DataQualityError(
                "p, q and rss must be finite; sanitize the trace first"
            )
        self.check_sufficient(p, q)
        return p, q, rss

    def check_sufficient(self, p: np.ndarray, q: np.ndarray) -> None:
        """The one sufficiency rule: :data:`MIN_SAMPLES` matched rows, over
        which the observer moved.

        Raises :class:`~repro.errors.InsufficientDataError` naming the
        part that failed. :class:`~repro.core.pipeline.LocBLE` applies it
        before noise filtering, so a window without enough data fails
        before it reaches a solve; :meth:`fit` and :func:`fit_batch` apply
        it for direct callers.
        """
        if len(p) < MIN_SAMPLES:
            raise InsufficientDataError(
                f"need >= {MIN_SAMPLES} matched samples, got {len(p)}"
            )
        if float(np.ptp(p)) < 0.2 and float(np.ptp(q)) < 0.2:
            raise InsufficientDataError(
                "observer barely moved; the regression is unobservable"
            )

    # -- warm-start path ----------------------------------------------------

    def _warm_usable(self, warm: WarmStartState) -> bool:
        """A warm state worth seeding from: finite, with a non-negative
        residual scale. Any exponent will do — the warm fit seeds only the
        position and solves ``(Γ, n)`` afresh — so a checkpointed state
        whose exponent lies anywhere, the box edges included, warm-starts.

        A refused state is one ``solver.warm_unusable`` signal.
        """
        vals = (warm.x, warm.h, warm.gamma, warm.n, warm.rss_rmse)
        if not all(math.isfinite(v) for v in vals):
            reason = "non-finite"
        elif warm.rss_rmse < 0.0:
            reason = "negative-rmse"
        else:
            return True
        obs.signal("solver.warm_unusable", reason=reason, warm_n=warm.n)
        return False

    def _warm_seed(self, warm: WarmStartState,
                   use_q: bool) -> Tuple[float, float]:
        """A warm fit's one seed: the previous optimum's ``(x, h)``. A
        straight-leg seed keeps at least :data:`_H_MIN` off the walk line."""
        return warm.x, warm.h if use_q else max(abs(warm.h), _H_MIN)

    def _warm_state_from(
        self, res: FitResult, use_q: bool, n_rows: int,
        stream_t: Optional[float] = None,
    ) -> Optional[WarmStartState]:
        """The state the *next* overlapping-window fit warm-starts from."""
        vals = (res.position.x, res.position.y, res.gamma, res.n)
        if not all(math.isfinite(float(v)) for v in vals):
            return None
        rmse = res.rss_rmse
        if not math.isfinite(rmse):
            return None
        return WarmStartState(
            x=float(res.position.x),
            h=float(res.position.y),
            gamma=float(res.gamma),
            n=float(res.n),
            rss_rmse=float(rmse),
            cov_status=res.cov_status,
            n_rows=int(n_rows),
            use_q=bool(use_q),
            stream_t=stream_t,
        )

    def _warm_reject(
        self, reason: str, warm: WarmStartState, n_rows: int,
    ) -> None:
        obs.signal("solver.warm_rejected", severity="warning", reason=reason,
                   warm_n=warm.n, warm_rmse=warm.rss_rmse, n_rows=n_rows)

    def _solve_for_n(
        self, p: np.ndarray, q: np.ndarray, rss: np.ndarray, n: float,
        use_q: bool,
    ) -> Optional[Tuple[float, float, float, float]]:
        """LS solve of Eq. 4 for one candidate exponent.

        Returns (x, h_or_nan, g, epsilon) or None if the solve degenerates.
        The y column is rescaled to unit mean for conditioning.
        """
        y = np.power(10.0, -rss / (5.0 * n))
        scale = float(np.mean(y))
        if not math.isfinite(scale) or scale <= 0:
            return None
        ys = y / scale
        rhs = p * p + q * q
        if use_q:
            design = np.column_stack([-2.0 * p, -2.0 * q, -np.ones_like(p), ys])
        else:
            design = np.column_stack([-2.0 * p, -np.ones_like(p), ys])
        try:
            theta, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if use_q:
            x, h, g, eps_s = (float(t) for t in theta)
        else:
            x, g, eps_s = (float(t) for t in theta)
            h = float("nan")
        eps = eps_s / scale
        # Note: under noise the LS epsilon can come out non-positive, which
        # no (Gamma, n) pair can produce; callers decide how to handle it.
        return x, h, g, eps

    def _solve_grid(
        self, p: np.ndarray, q: np.ndarray, rss: np.ndarray,
        n_values: np.ndarray, use_q: bool,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched Eq. 4 solve over a whole exponent grid at once.

        Only the last design column (the ``eta^RS`` regressor) depends on the
        candidate exponent, so the shared columns (``-2p``, ``-2q``, ``-1``)
        and the right-hand side ``p² + q²`` are built once and the G
        per-candidate least-squares problems are solved as one stacked QR
        factorisation. Returns per-candidate arrays
        ``(valid, x, h, g, eps)`` with ``h = nan`` when ``use_q`` is False;
        candidates whose regressor degenerates (non-finite scale) come back
        with ``valid = False``.
        """
        n_values = np.asarray(n_values, dtype=float)
        n_cand = len(n_values)
        x = np.full(n_cand, np.nan)
        h = np.full(n_cand, np.nan)
        g = np.full(n_cand, np.nan)
        eps = np.full(n_cand, np.nan)

        # Regressor matrix for every candidate exponent in one shot.
        y = np.power(10.0, -rss[None, :] / (5.0 * n_values[:, None]))
        with np.errstate(invalid="ignore"):
            scale = np.mean(y, axis=1)
        valid = np.isfinite(scale) & (scale > 0) & np.all(np.isfinite(y), axis=1)
        if not np.any(valid):
            return valid, x, h, g, eps
        ys = y[valid] / scale[valid, None]

        rhs = p * p + q * q
        if use_q:
            shared = np.column_stack([-2.0 * p, -2.0 * q, -np.ones_like(p)])
        else:
            shared = np.column_stack([-2.0 * p, -np.ones_like(p)])
        n_params = shared.shape[1] + 1
        designs = np.empty((ys.shape[0], len(p), n_params))
        designs[:, :, :-1] = shared[None, :, :]
        designs[:, :, -1] = ys

        try:
            # Stacked thin-QR least squares: numerically the lstsq solution
            # for the full-rank case, G solves in one LAPACK batch.
            q_fact, r_fact = np.linalg.qr(designs)
            qtb = q_fact.transpose(0, 2, 1) @ rhs[None, :, None]
            theta = np.linalg.solve(r_fact, qtb)[:, :, 0]
        except np.linalg.LinAlgError:
            # A candidate's design went rank-deficient — fall back to the
            # per-candidate SVD solver, which handles it via min-norm.
            for idx in np.flatnonzero(valid):
                sol = self._solve_for_n(p, q, rss, float(n_values[idx]),
                                        use_q=use_q)
                if sol is None:
                    valid[idx] = False
                    continue
                x[idx], h[idx], g[idx], eps[idx] = sol
            return valid, x, h, g, eps

        # Unpivoted QR has no rank protection: a (near-)collinear design —
        # e.g. a perfectly straight walk making p and q proportional — gives
        # a tiny R diagonal and a garbage solve instead of an error. Divert
        # those candidates to the SVD solver, whose min-norm behaviour is
        # the reference semantics.
        r_diag = np.abs(np.diagonal(r_fact, axis1=1, axis2=2))
        ill = (r_diag.min(axis=1) <= r_diag.max(axis=1) * 1e-7) | ~np.all(
            np.isfinite(theta), axis=1)

        vidx = np.flatnonzero(valid)
        x[vidx] = theta[:, 0]
        if use_q:
            h[vidx] = theta[:, 1]
            g[vidx] = theta[:, 2]
        else:
            g[vidx] = theta[:, 1]
        eps[vidx] = theta[:, -1] / scale[valid]
        for idx in vidx[ill]:
            sol = self._solve_for_n(p, q, rss, float(n_values[idx]),
                                    use_q=use_q)
            if sol is None:
                valid[idx] = False
                x[idx] = h[idx] = g[idx] = eps[idx] = np.nan
            else:
                x[idx], h[idx], g[idx], eps[idx] = sol
        return valid, x, h, g, eps

    def _rss_residuals_reference(
        self, p: np.ndarray, q: np.ndarray, rss: np.ndarray,
        x: float, h: float, n: float, gamma: float,
    ) -> np.ndarray:
        """Pre-vectorization residuals (per-element loop); bench baseline."""
        l = np.hypot(x + p, h + q)
        predicted = np.array([rss_at(float(d), gamma, n) for d in l])
        return rss - predicted

    #: Position-std ceiling (metres). BLE's usable sensing range is ~15 m
    #: (Sec. 7.5), so an uncertainty beyond this says only "unobservable".
    POS_STD_CAP = 25.0

    #: Normal matrices with a worse eigenvalue ratio than this are treated
    #: as rank-deficient: solving them would report a confidently tiny std
    #: along a direction the walk geometry never observed.
    COND_LIMIT = 1e12

    def _covariance_from(
        self, jac: np.ndarray, fun: np.ndarray, n_data: int
    ) -> Tuple[float, Optional[float], str]:
        """Gauss-Newton position std from ``sigma^2 * inv(J^T J)``.

        Returns ``(pos_std, cond, status)`` with ``status`` as documented on
        :class:`FitResult`. The conditioning is checked *before* solving:
        for a rank-deficient normal matrix (e.g. a perfectly straight walk
        through the beacon, whose lateral column of J vanishes) both a
        Tikhonov-style ``inv(jtj + eps*I)`` and a pseudo-inverse would
        return a silently tiny variance in the unobservable direction — the
        exact failure this layer exists to surface. Such geometry pins the
        std to :data:`POS_STD_CAP` instead, and callers emit the event.
        """
        pos_std = self.POS_STD_CAP
        cov_cond: Optional[float] = None
        try:
            jtj = jac.T @ jac
            eigs = np.linalg.eigvalsh(jtj)
            if not (np.all(np.isfinite(eigs)) and eigs[-1] > 0):
                return pos_std, None, "error"
            if eigs[0] <= eigs[-1] / self.COND_LIMIT:
                cov_cond = (float(eigs[-1] / eigs[0]) if eigs[0] > 0
                            else math.inf)
                return pos_std, cov_cond, "rank-deficient"
            cov_cond = float(eigs[-1] / eigs[0])
            cov = np.linalg.solve(jtj, np.eye(jtj.shape[0]))
            dof = max(n_data - 4, 1)
            sigma_sq = float(np.sum(np.asarray(fun)[:n_data] ** 2)) / dof
            var_pos = sigma_sq * (cov[0, 0] + cov[1, 1])
            if not (var_pos >= 0 and math.isfinite(var_pos)):
                return pos_std, cov_cond, "error"
            std = math.sqrt(var_pos)
            if std >= self.POS_STD_CAP:
                return pos_std, cov_cond, "capped"
            return std, cov_cond, "ok"
        except np.linalg.LinAlgError:
            return pos_std, cov_cond, "error"

    def _report_covariance(self, best: FitResult) -> None:
        """Make a winning fit's covariance fallback loud (never silent).

        One ``estimator.cov_fallbacks`` signal per fit whose reported
        ``position_std`` is not the trusted Gauss-Newton value.
        """
        if best.cov_status in ("ok", "none"):
            return
        obs.signal("estimator.cov_fallbacks", severity="warning",
                   status=best.cov_status, cond=best.cov_cond,
                   position_std=best.position_std, solver=best.solver)

    def _initial_candidates(
        self, p: np.ndarray, q: np.ndarray, rss: np.ndarray, use_q: bool
    ) -> List[Seed]:
        """(x, h, Γ, n) starting points for a cold nonlinear refinement.

        Collects the linearised solutions at a spread of exponents plus a
        range-heuristic seed (median RSS inverted at nominal parameters,
        beacon assumed broadside of the walk) so at least one initial point
        sits in the right basin. Straight-leg seeds (``use_q`` False) keep
        ``h >= 0``, the canonical side of the mirror ambiguity, and the
        heuristic ones start off the walk line (:data:`_H_MIN`). A
        linearised seed keeps the lateral offset its own solve found, 0
        included: there the solve put the beacon on the walk line, where
        such a seed is the optimum when the beacon really is on it.
        """
        seeds: List[Seed] = []
        valid, xs, hs, gs, epss = self._solve_grid(p, q, rss, _SEED_N_GRID,
                                                   use_q)
        for k in np.flatnonzero(valid):
            x, h, g, eps, n = xs[k], hs[k], gs[k], epss[k], _SEED_N_GRID[k]
            if eps <= 0:
                continue
            if not use_q or not math.isfinite(h):
                h_sq = max(g - x * x, 0.0)
                h = math.sqrt(h_sq)
            gamma = 5.0 * n * math.log10(eps)
            if math.isfinite(gamma):
                seeds.append((float(x), float(h), gamma, float(n)))
        # Heuristic seeds: invert the median RSS at the *prior* parameters
        # (falling back to nominal BLE values) and spread candidate bearings
        # around the walk — the nonlinear objective is multi-modal under
        # heavy noise, so the refinement needs starts in several basins.
        nominal_gamma = self.gamma_prior if self.gamma_prior is not None else -59.0
        nominal_n = self.n_prior if self.n_prior is not None else 2.2
        # The exponent is capped before the power so that absurd (finite)
        # readings cannot overflow; the cap sits above the 30 m clamp.
        d0 = 10.0 ** min(
            (nominal_gamma - float(np.median(rss))) / (10.0 * nominal_n), 2.0)
        d0 = min(max(d0, 0.5), 30.0)
        for scale in (1.0, 1.5):
            for angle in (0.0, math.pi / 4, -math.pi / 4, math.pi / 2,
                          -math.pi / 2):
                h0 = d0 * scale * math.sin(angle)
                seeds.append((d0 * scale * math.cos(angle),
                              h0 if use_q else max(abs(h0), _H_MIN),
                              nominal_gamma, nominal_n))
        return seeds

    def _fit_linearized(
        self, p: np.ndarray, q: np.ndarray, rss: np.ndarray, use_q: bool,
    ) -> FitResult:
        """The paper's pure Eq. 4/5 solver: LS per exponent, grid arg-min.

        Fully vectorized: one stacked solve for every candidate exponent
        (:meth:`_solve_grid`), then one pass of array ops for the RSS-domain
        residual of each candidate and the Eq. 5 arg-min. Numerically
        equivalent to :meth:`_fit_linearized_reference` (the original
        per-candidate loop, kept for tests and benchmarks). It searches
        the whole :data:`DEFAULT_N_GRID`.
        """
        n_values = DEFAULT_N_GRID
        valid, x, h, g, eps = self._solve_grid(p, q, rss, n_values, use_q)
        if not np.any(valid):
            raise DegenerateGeometryError(
                "no path-loss exponent yielded a valid solve")

        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            # Recover the lateral offset where the solve left it implicit.
            need_h = ~np.isfinite(h) if use_q else np.ones_like(valid)
            h = np.where(need_h, np.sqrt(np.maximum(g - x * x, 0.0)), h)

            # Per-candidate distances to every sample: (G, N).
            l = np.maximum(np.hypot(x[:, None] + p[None, :],
                                    h[:, None] + q[None, :]), MIN_DISTANCE_M)
            log_l = np.log10(l)

            # Γ from epsilon where physical, else the post-hoc level matching
            # the candidate's geometry (exactly the reference's two branches).
            gamma = np.full(len(n_values), np.nan)
            pos = valid & (eps > 0)
            if np.any(pos):
                gamma[pos] = 5.0 * n_values[pos] * np.log10(eps[pos])
            fallback = valid & ~pos
            if np.any(fallback):
                gamma[fallback] = np.mean(
                    rss[None, :]
                    + 10.0 * n_values[fallback, None] * log_l[fallback],
                    axis=1,
                )

            resid = rss[None, :] - (
                gamma[:, None] - 10.0 * n_values[:, None] * log_l
            )
            cost = np.sum(resid * resid, axis=1)
        cost = np.where(valid & np.isfinite(cost), cost, np.inf)
        best_idx = int(np.argmin(cost))
        if not np.isfinite(cost[best_idx]):
            raise DegenerateGeometryError(
                "no path-loss exponent yielded a valid solve")
        xb, hb = float(x[best_idx]), float(h[best_idx])
        return FitResult(
            position=Vec2(xb, hb),
            n=float(n_values[best_idx]),
            gamma=float(gamma[best_idx]),
            epsilon=float(eps[best_idx]),
            residuals=resid[best_idx],
            mirror=None if use_q else Vec2(xb, -hb),
            g=float(g[best_idx]),
            solver="linearized",
            n_candidates=int(np.sum(valid)),
        )

    def _fit_linearized_reference(
        self, p: np.ndarray, q: np.ndarray, rss: np.ndarray, use_q: bool
    ) -> FitResult:
        """Reference per-candidate loop over the grid (pre-vectorization).

        Kept verbatim as the numerical ground truth: tests assert the
        vectorized :meth:`_fit_linearized` matches it, and the hot-path
        benchmark measures the speedup against it.
        """
        best: Optional[FitResult] = None
        best_cost = math.inf
        for n in DEFAULT_N_GRID:
            sol = self._solve_for_n(p, q, rss, float(n), use_q=use_q)
            if sol is None:
                continue
            x, h, g, eps = sol
            if not use_q or not math.isfinite(h):
                h = math.sqrt(max(g - x * x, 0.0))
            if eps > 0:
                gamma = 5.0 * float(n) * math.log10(eps)
            else:
                # Noise pushed the LS epsilon non-physical; recover Gamma
                # post-hoc as the level matching the geometry at this n.
                l = np.maximum(np.hypot(x + p, h + q), 0.1)
                gamma = float(np.mean(rss + 10.0 * float(n) * np.log10(l)))
            resid = self._rss_residuals_reference(p, q, rss, x, h, float(n), gamma)
            cost = float(np.sum(resid**2))
            if cost < best_cost:
                best_cost = cost
                best = FitResult(
                    position=Vec2(x, h),
                    n=float(n),
                    gamma=gamma,
                    epsilon=eps,
                    residuals=resid,
                    mirror=None if use_q else Vec2(x, -h),
                    g=g,
                )
        if best is None:
            raise DegenerateGeometryError(
                "no path-loss exponent yielded a valid solve")
        return best


@dataclass
class FitRequest:
    """One session's solve inputs for :func:`fit_batch`.

    ``estimator`` overrides the batch's default estimator for this request
    (e.g. an environment-resolved copy); ``warm`` mirrors the
    :meth:`EllipticalEstimator.fit` argument.
    """

    p: Sequence[float]
    q: Sequence[float]
    rss: Sequence[float]
    warm: Optional[WarmStartState] = None
    estimator: Optional[EllipticalEstimator] = None


@dataclass
class _Job:
    """One validated request on its way through :func:`_solve_jobs`."""

    est: EllipticalEstimator
    p: np.ndarray
    q: np.ndarray
    rss: np.ndarray
    use_q: bool
    warm: Optional[WarmStartState]


def _uses_q(q: np.ndarray) -> bool:
    """Whether the walk moved laterally enough (metres) for a joint fit."""
    return float(np.ptp(q)) > 0.3


#: Per-sample terms of one residual evaluation, each ``(B, N)``: the
#: offsets ``x + p`` and ``h + q``, the squared distance clamped at
#: (0.1 m)², and its ``log10`` (twice the ``log10`` of the distance). A
#: winner's residuals and Jacobian are built from them.
_Terms = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _lm_terms(theta: np.ndarray, p: np.ndarray, q: np.ndarray) -> _Terms:
    """:data:`_Terms` of ``theta`` over the batch-first ``(B, N)`` windows."""
    dx = theta[:, 0:1] + p
    dy = theta[:, 1:2] + q
    d2 = np.maximum(dx * dx + dy * dy, 0.01)
    return dx, dy, d2, np.log10(d2)


def _lm_residuals(
    theta: np.ndarray, terms: _Terms, rss: np.ndarray,
    gp: np.ndarray, wg: np.ndarray, npr: np.ndarray, wn: np.ndarray,
) -> np.ndarray:
    """Stacked RSS-domain + prior residuals of ``(x, h, Γ, n)``, shape
    ``(B, N + 2)``.

    The linearised solve of Eq. 4 puts the measurement noise inside the
    regressor ``y = 10^(-RS/(5n))`` (an errors-in-variables setup that
    shrinks the geometry), so it only seeds the refinement; the final
    estimate minimises Eq. 5's objective — squared RSS-domain residuals —
    directly, where the noise sits in the response.

    Row layout: N data rows, then the Γ-prior row, then the n-prior row.
    The prior weights scale with ``sqrt(N)`` of the row's own window so
    the priors keep pace with the data term instead of washing out on long
    traces; an absent prior has weight 0. ``terms`` are :func:`_lm_terms`
    of ``theta``; ``10·n·log10(d)`` is ``5·n·log10(d²)``.
    """
    r_data = rss - (theta[:, 2:3] - 5.0 * theta[:, 3:4] * terms[3])
    r_pg = (wg * (theta[:, 2] - gp))[:, None]
    r_pn = (wn * (theta[:, 3] - npr))[:, None]
    return np.concatenate([r_data, r_pg, r_pn], axis=1)


def _lm_jacobian(
    theta: np.ndarray, terms: _Terms, wg: np.ndarray, wn: np.ndarray,
) -> np.ndarray:
    """Analytic Jacobian of :func:`_lm_residuals` in all four of
    ``(x, h, Γ, n)``, shape ``(N+2, 4, B)``.

    A winner's covariance (:meth:`EllipticalEstimator._covariance_from`)
    is taken from it once, at the optimum the separable solve found.
    """
    dx, dy, d2, log_d2 = terms
    n_rows = dx.shape[1]
    # Inside the 0.1 m clamp the distance no longer responds to (x, h);
    # ``d2 > 0.01`` is False on NaN too.
    coef = np.where(d2 > 0.01, (10.0 / _LN10) * theta[:, 3:4] / d2, 0.0)
    j = np.zeros((n_rows + 2, 4, theta.shape[0]))
    j[:n_rows, 0] = (coef * dx).T
    j[:n_rows, 1] = (coef * dy).T
    j[:n_rows, 2] = -1.0
    j[:n_rows, 3] = (5.0 * log_d2).T
    j[n_rows, 2] = wg
    j[n_rows + 1, 3] = wn
    return j


#: Rows of the packed per-row state :func:`_vp_eval` returns and
#: :func:`_vp_kernel` carries: the position, the path-loss parameters
#: that solve the inner problem there, the cost, Kaufman's projected 2×2
#: Hessian (row-major, four entries) and the gradient in ``(x, h)``.
_X, _H, _GAMMA, _N, _COST, _HESS, _GRAD, _STATE = 0, 1, 2, 3, 4, 5, 9, 11

#: Planes of the ``(8, S)`` work array of :func:`_vp_eval`, whose S
#: columns are the live rows' windows laid end to end: the window's ``p``
#: and ``q``; the residual's (x, h) derivatives ``jx`` and ``jh``, the
#: residual ``r`` and ``L``, the ``log10`` of the clamped squared
#: distance, which each evaluation overwrites; a plane of ones; and the
#: window's ``rss``. The order makes each stack of products one product
#: of two plane ranges.
_P, _Q, _JX, _JH, _R, _L, _ONES, _RSS = range(8)

#: Rows of the per-row constants :func:`_kernel_inputs` packs: the Γ
#: entries of the inner normal equations (``N + wg²`` and
#: ``Σrss + wg²·gp``), the n-prior's ``wn²`` and ``wn²·npr``, and the
#: prior weights and centres the cost's two prior rows take.
_A11, _B1, _WN2, _WN2NPR, _WG, _WN, _GP, _NPR = range(8)


def _job_constants(job: "_Job") -> Tuple[float, ...]:
    """One job's row of :data:`_A11` ... :data:`_NPR` constants.

    Its window's ``Σrss`` is summed from that window alone, so a job gets
    the same bits whatever else shares its kernel run.
    """
    est, root_n = job.est, math.sqrt(len(job.p))
    wg = gp = wn = npr = 0.0
    if est.gamma_prior is not None:
        wg, gp = root_n / est.gamma_prior_sigma, est.gamma_prior
    if est.n_prior is not None:
        wn, npr = root_n / N_PRIOR_SIGMA, est.n_prior
    return (len(job.p) + wg * wg, float(np.sum(job.rss)) + wg * wg * gp,
            wn * wn, wn * wn * npr, wg, wn, gp, npr)


def _inner_solve(
    sums: np.ndarray, c: np.ndarray,
) -> Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]],
           np.ndarray, np.ndarray, np.ndarray]:
    """The ``(Γ, n)`` in the box that minimise each row's cost at its
    fixed ``(x, h)``.

    The residual ``rss − Γ + 10·n·log10(d)`` is linear in ``(Γ, n)``, so
    with the prior rows the cost is a convex quadratic whose 2×2 normal
    equations take ``sums`` = ``(ΣL², ΣL, Σrss·L)`` over the window (``L``
    the ``log10`` of the squared distance, twice the model's, hence the
    5s and 25) and the row's constants ``c``. A solution outside the box is replaced by the
    best of the four box edges, each a 1-D solve clamped to its edge; that
    edge also says which of Γ and n stays free. Returns ``(gn, free, a12,
    a22, det)``: ``(Γ, n)`` as a ``(2, B)`` array, which of them are free
    (a pair of ``(B,)`` masks, ``None`` when both are on every row), and
    the rest of the normal matrix and its determinant, for
    :func:`_vp_eval`'s projection.
    """
    a11, b1 = c[_A11], c[_B1]
    a22 = 25.0 * sums[0] + c[_WN2]
    a12 = -5.0 * sums[1]
    b2 = c[_WN2NPR] - 5.0 * sums[2]
    det = a11 * a22 - a12 * a12
    gn = np.empty((2, len(det)))
    np.subtract(a22 * b1, a12 * b2, out=gn[0])
    np.subtract(a11 * b2, a12 * b1, out=gn[1])
    gn /= det
    inside = (gn >= _GN_BOX[:, :1]) & (gn <= _GN_BOX[:, 1:])
    inside = inside[0] & inside[1]
    if np.count_nonzero(inside) == len(inside):
        return gn, None, a12, a22, det
    # Edges 0-1 hold Γ on its bounds, edges 2-3 hold n on its bounds; the
    # free one of each is its 1-D solve, clamped into the box.
    (g_lo, g_hi), (n_lo, n_hi) = _GN_BOX
    edges = np.empty((2, 4, len(det)))
    edges[0, :2] = _GN_BOX[0, :, None]
    edges[1, 2:] = _GN_BOX[1, :, None]
    np.minimum(np.maximum((b2 - a12 * edges[0, :2]) / a22, n_lo), n_hi,
               out=edges[1, :2])
    np.minimum(np.maximum((b1 - a12 * edges[1, 2:]) / a11, g_lo), g_hi,
               out=edges[0, 2:])
    g_e, n_e = edges
    # The quadratic less its constant: βᵀAβ − 2bᵀβ.
    f = (g_e * (a11 * g_e + 2.0 * (a12 * n_e - b1))
         + n_e * (a22 * n_e - 2.0 * b2))
    k = np.argmin(np.where(np.isfinite(f), f, np.inf), axis=0)
    best = edges[:, k, np.arange(len(k))]
    off = (best > _GN_BOX[:, :1]) & (best < _GN_BOX[:, 1:])
    n_held = k >= 2
    free = (n_held & off[0] | inside, ~n_held & off[1] | inside)
    return np.where(inside, gn, best), free, a12, a22, det


def _vp_eval(
    xy: np.ndarray, w: np.ndarray, c: np.ndarray, lengths: np.ndarray,
    starts: np.ndarray,
) -> np.ndarray:
    """The separable problem at each row's ``(x, h)``: the packed
    ``(11, B)`` state of :data:`_X` ... :data:`_GRAD`.

    ``xy`` is ``(2, B)``, ``w`` the ``(8, S)`` work array of :data:`_P`
    ... :data:`_RSS`, ``c`` the ``(8, B)`` constants, ``lengths`` each
    row's sample count and ``starts`` its first sample.
    ``(Γ, n)`` come from :func:`_inner_solve`. The gradient is ``Jᵀr`` over
    the (x, h) columns ``J`` of the residuals' Jacobian; at the inner
    optimum it is the exact gradient of the projected cost. The Hessian
    is Kaufman's: ``JᵀJ − (JᵀΦ)(ΦᵀΦ)⁻¹(ΦᵀJ)`` over the free columns ``Φ``
    of the linear design ``(1, −10·log10 d)`` and its prior rows.

    Every row sum is an ``np.add.reduceat`` over the row's own samples,
    whose result depends on those samples alone: a row's sums are the
    same bits whatever other rows, and windows of whatever lengths, share
    the work array.
    """
    dxy = np.repeat(xy, lengths, axis=1)
    dxy += w[_P:_Q + 1]
    d2 = dxy * dxy
    d2 = np.add(d2[0], d2[1], out=d2[0])
    near = d2 <= 0.01
    np.maximum(d2, 0.01, out=d2)
    log_d2 = np.log10(d2, out=w[_L])
    # L · (L, 1, rss): the inner solve's ΣL², ΣL and Σrss·L.
    gn, free, a12, a22, det = _inner_solve(
        np.add.reduceat(log_d2 * w[_L:], starts, axis=1), c)

    # Γ, 5·n and the distance derivative's 10·n/ln 10, per sample.
    per_row = np.empty((3, len(det)))
    per_row[:2] = gn
    per_row[1] *= 5.0
    np.multiply(10.0 / _LN10, gn[1], out=per_row[2])
    gam, n5, kn = np.repeat(per_row, lengths, axis=1)
    r = np.multiply(n5, log_d2, out=w[_R])
    np.subtract(gam, r, out=r)
    np.subtract(w[_RSS], r, out=r)
    # Inside the 0.1 m clamp the distance no longer responds to (x, h).
    kn /= d2
    kn[near] = 0.0
    np.multiply(kn, dxy, out=w[_JX:_JH + 1])
    # (jx, jh, r) · (jx, jh, r, L, 1): every other row sum.
    t = w[_JX:_R + 1, None] * w[None, _JX:_ONES + 1]
    sums = np.add.reduceat(t.reshape(15, -1), starts, axis=1).reshape(
        3, 5, -1)

    # (ΦᵀΦ)⁻¹ over the free columns, zero where a column is held, with
    # the −5 of the n column (−10·log10 d = −5·L) folded in.
    m_gg = a22 / det
    m_gn = 5.0 * a12 / det
    m_nn = 25.0 * c[_A11] / det
    if free is not None:
        both = free[0] & free[1]
        m_gg = np.where(both, m_gg, np.where(free[0], 1.0 / c[_A11], 0.0))
        m_gn = np.where(both, m_gn, 0.0)
        m_nn = np.where(both, m_nn, np.where(free[1], 25.0 / a22, 0.0))
    # Rows x and h of Σj and Σj·L, against the Γ and the n column.
    u_g, u_n = sums[:2, 4], sums[:2, 3]
    v_g = m_gg * u_g + m_gn * u_n
    v_n = m_gn * u_g + m_nn * u_n
    st = np.empty((_STATE, len(det)))
    st[_X:_GAMMA] = xy
    st[_GAMMA:_COST] = gn
    prior = c[_WG:_GP] * (gn - c[_GP:])
    prior *= prior
    np.add(sums[2, 2] + prior[0], prior[1], out=st[_COST])
    np.subtract(sums[:2, :2], u_g[:, None] * v_g + u_n[:, None] * v_n,
                out=st[_HESS:_GRAD].reshape(2, 2, -1))
    st[_GRAD:] = sums[:2, 2]
    return st


def _starts(lengths: np.ndarray) -> np.ndarray:
    """The first sample of each row, its windows laid end to end."""
    starts = np.zeros(len(lengths), dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _job_pairs(job: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Every ordered pair ``(a, b)``, ``a != b``, of rows of one job."""
    if job is None:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    same = job[:, None] == job[None, :]
    np.fill_diagonal(same, False)
    return np.nonzero(same)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _vp_kernel(
    xy0: np.ndarray, w: np.ndarray, c: np.ndarray, lengths: np.ndarray,
    job: Optional[np.ndarray] = None, max_iter: int = 60,
) -> np.ndarray:
    """Lockstep separable Levenberg-Marquardt over a batch of ``(x, h)``
    seeds; returns the final packed ``(11, B)`` states (:func:`_vp_eval`).

    ``xy0`` is ``(2, B)``, ``w`` the ``(8, S)`` work array with the B
    windows laid end to end and the ones in place (:data:`_P` ...
    :data:`_RSS`), ``c`` the ``(8, B)`` constants (:func:`_job_constants`)
    and ``lengths`` the ``(B,)`` window lengths.

    This is the one nonlinear solver of the elliptical regression: cold,
    warm and batched fits all run through it. The model is linear in
    ``(Γ, n)``, so only ``(x, h)`` is iterated (variable projection,
    Golub and Pereyra 1973, with Kaufman's 1975 Hessian): each trial
    position gets its own best ``(Γ, n)`` in closed form. The damped 2×2
    system is solved elementwise. A position on its ±18 m bound whose
    descent direction points out of the box is held, so the other one
    solves alone instead of crawling along the bound; a row whose Hessian
    or gradient is not finite holds both (zero step) and then leaves.

    A step is accepted when it lowers the cost; λ then shrinks by 3,
    otherwise it grows by 5. A row freezes when it converges (an
    accepted step that gains at most 1e-10 of the cost, or moves each
    coordinate by at most :data:`_STEP_TOL`), gets stuck (λ past 1e8)
    or fails. Rows of one ``job`` (``(B,)`` ids; ``None`` puts every row
    in a job of its own) are seeds of one problem: after each iteration
    but the last, a live row within :data:`_MERGE_TOL` of a lower-cost row
    of its job, live or frozen, freezes (on equal costs the later row
    does), since it has met a basin another row already holds.

    A solo row, its job's only row (every warm fit), takes two more
    rules against the zig-zag that Kaufman's Hessian causes where it
    underestimates the curvature: each step overshoots across the valley
    and the row crawls, up to ``max_iter``. Both read the parabola of the
    cost along the step tried, ``c − 2α·g·s + α²κ`` with ``g·s`` the
    gradient's dot with the step and ``κ = 2·g·s − gain``, least at
    ``α = g·s/κ``.

    - Rule 1, once a step of the row has overshot that least by half or
      more (``α < 2/3``, a gain under half of ``g·s``): a step ``s``
      that reverses the last accepted step ``m``, ``ρ = s·m/m·m < 0``, is
      divided by ``min(1 − ρ, 10)``. A zig-zag that contracts by ρ per
      step then lands on its limit (Aitken's Δ²). The step stop judges
      ``s`` before the division, which would fake convergence. A row
      whose steps gain as the model says keeps its Gauss-Newton path.
    - Rule 2: after a rejected step with ``g·s > 0``, λ becomes at least
      ``(h + λ)/α − h``, ``α`` clipped to [0.1, 0.5] and ``h`` the mean
      of the Hessian's diagonal, so that the next step shrinks to about
      the parabola's least instead of λ growing by 5 from as low as
      1e-10.

    Rows with siblings (cold fits) keep the steps above exactly. Applied
    to them too, the rules move Fig. 5's full arm from 4.472 to 4.844 m,
    past the bench's 1 m bound against 3.784 m without ANF: its median
    turns on equal-cost mirror pairs whose winner depends on how far each
    row converged (ROADMAP item 8). Once cold winners no longer depend on
    stopping points, this fence can go.

    A frozen row is removed from the compacted working set — a handful of
    gathers of the packed state, samples and constants — and never
    changes again. Every operation is elementwise or one of
    :func:`_vp_eval`'s per-row sums, so a job's rows end bit-identical
    whatever other jobs share the run, as :func:`fit_batch` relies on.
    """
    out = _vp_eval(xy0, w, c, lengths, _starts(lengths))
    keep = np.isfinite(out[_COST])
    idx = np.flatnonzero(keep)
    if idx.size < keep.size:
        w = np.compress(np.repeat(keep, lengths), w, axis=1)
    s, c, lengths = out[:, idx], c[:, idx], lengths[idx]
    starts = _starts(lengths)
    lam = np.full(idx.size, 1e-3)
    # Solo rows (their job's only row) and those of them rule 1 is armed
    # for. ``steps[0]`` is this iteration's step and ``steps[1]`` an armed
    # row's last accepted one, zero until it accepts one; every other row
    # keeps a zero there.
    solo = (np.ones(idx.size, dtype=bool) if job is None
            else np.bincount(job)[job[idx]] == 1)
    n_solo = np.count_nonzero(solo)
    all_solo = n_solo == solo.size
    armed = np.zeros(idx.size, dtype=bool)
    n_armed = 0
    steps = np.zeros((2, 2, idx.size))
    evals = idx.size
    # Merge candidates: ordered (a, b) pairs of one job whose row a is live.
    pair_a, pair_b = _job_pairs(job)
    live = np.zeros(out.shape[1], dtype=bool)
    live[idx] = True
    keep_pair = live[pair_a]
    pair_a, pair_b = pair_a[keep_pair], pair_b[keep_pair]
    merged_rows = 0

    n_iter = 0
    while idx.size and n_iter < max_iter:
        n_iter += 1
        xy, grad = s[:_GAMMA], s[_GRAD:]
        finite = np.logical_and.reduce(np.isfinite(s[_HESS:]), axis=0)
        a = s[_HESS] + lam
        d = s[_HESS + 3] + lam
        b = s[_HESS + 1]
        if (np.count_nonzero(finite) < finite.size
                or np.count_nonzero(np.abs(xy) >= _XY_MAX)):
            free = finite & ~(((xy <= -_XY_MAX) & (grad > 0.0))
                              | ((xy >= _XY_MAX) & (grad < 0.0)))
            a = np.where(free[0], a, 1.0)
            d = np.where(free[1], d, 1.0)
            b = np.where(free[0] & free[1], b, 0.0)
            grad = np.where(free, grad, 0.0)
        step = steps[0]
        np.subtract(d * grad[0], b * grad[1], out=step[0])
        np.subtract(a * grad[1], b * grad[0], out=step[1])
        step /= a * d - b * b
        if n_armed:
            # Rule 1: ρ = s·m/m·m of the step s and the last accepted step
            # m; a reversal, ρ < 0, divides the step by 1 − ρ, at most 10.
            # A zero m gives ρ = NaN and the divisor 1.
            sm = step * steps[1]
            mm = steps[1] * steps[1]
            rho = (sm[0] + sm[1]) / (mm[0] + mm[1])
            trial = xy - step / np.fmin(np.fmax(1.0 - rho, 1.0), 10.0)
        else:
            trial = xy - step
        trial = np.minimum(np.maximum(trial, -_XY_MAX), _XY_MAX)
        t = _vp_eval(trial, w, c, lengths, starts)
        evals += idx.size
        gain = s[_COST] - t[_COST]
        better = finite & (t[_COST] < s[_COST])
        rejected = finite & ~better
        # A solo row's step stop judges its step before rule 1 shortened
        # it. A row that is not finite leaves, so its λ does not matter.
        moved = np.abs(step if all_solo else xy - trial if not n_solo
                       else np.where(solo, step, xy - trial)) <= _STEP_TOL
        grown = lam * 5.0
        if n_solo:
            # Along the step tried, xy − trial, the cost is the parabola
            # c − 2α·g·s + α²κ, κ = 2·g·s − gain, least at α = g·s/κ.
            gs = grad * (xy - trial)
            gs = gs[0] + gs[1]
            solo_rejected = rejected if all_solo else rejected & solo
            if np.count_nonzero(solo_rejected):
                # Rule 2: λ grows so that the step shrinks to about α.
                alpha = np.minimum(np.maximum(gs / (2.0 * gs - gain), 0.1),
                                   0.5)
                h = 0.5 * (s[_HESS] + s[_HESS + 3])
                grown = np.where(solo_rejected & (gs > 0.0), np.fmax(
                    grown, (h + lam) / alpha - h), grown)
            # Rule 1 is armed by a step that overshot its parabola's least
            # by half or more (α < 2/3: it gained under half of g·s).
            overshot = gain < 0.5 * gs
            armed |= overshot if all_solo else overshot & solo
            n_armed = np.count_nonzero(armed)
            if n_armed:
                np.copyto(steps[1], step, where=better & armed)
        s = np.where(better, t, s)
        lam = np.where(better, np.maximum(lam / 3.0, 1e-10), grown)
        done = better & ((moved[0] & moved[1])
                         | (gain <= 1e-10 * np.maximum(s[_COST], 1e-12)))
        keep = finite & ~(done | (rejected & (lam > 1e8)))
        if pair_a.size and n_iter < max_iter:
            out[:, idx] = s
            live[idx] = keep
            a, b = pair_a, pair_b
            met = (live[a]
                   & ((out[_COST, b] < out[_COST, a])
                      | ((out[_COST, b] == out[_COST, a]) & (b < a)))
                   & np.logical_and.reduce(
                       np.abs(out[:_GAMMA, a] - out[:_GAMMA, b])
                       <= _MERGE_TOL, axis=0))
            if np.count_nonzero(met):
                live[a[met]] = False
                merged = ~live[idx] & keep
                merged_rows += int(np.count_nonzero(merged))
                keep &= ~merged
        if np.count_nonzero(keep) < keep.size:
            out[:, idx] = s
            idx, s, lam = idx[keep], s[:, keep], lam[keep]
            steps = steps[:, :, keep]
            if n_solo:
                solo, armed = solo[keep], armed[keep]
                n_solo = np.count_nonzero(solo)
                n_armed = np.count_nonzero(armed)
                all_solo = n_solo == solo.size
            w = np.compress(np.repeat(keep, lengths), w, axis=1)
            c, lengths = c[:, keep], lengths[keep]
            starts = _starts(lengths)
            if pair_a.size:
                keep_pair = live[pair_a]
                pair_a, pair_b = pair_a[keep_pair], pair_b[keep_pair]
    if idx.size:
        out[:, idx] = s
    perf.count("estimator.lm_kernel_calls")
    perf.count("estimator.lm_iterations", n_iter)
    perf.count("estimator.lm_normal_rows", evals)
    perf.count("estimator.lm_rows_merged", merged_rows)
    if n_iter == max_iter:
        perf.count("estimator.lm_max_iter_calls")
    return out


#: A job's winning kernel row: ``(theta, residual row, Jacobian)``, with
#: ``theta`` the four ``(x, h, Γ, n)``.
_Best = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Costs within this fraction of a job's least cost tie: the first such
#: row in seed order wins. Distinct basins can cost the same to about
#: 1e-9, where rounding alone would pick one.
_TIE_RTOL = 1e-6


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` with every bit-for-bit repeat of an earlier row dropped.

    Compared on bit patterns, not with float ``==``, which would merge
    ``-0.0`` with ``0.0`` and never match a NaN.
    """
    first: Dict[bytes, int] = {}
    for k, row in enumerate(rows):
        first.setdefault(row.tobytes(), k)
    return rows[list(first.values())]


def _kernel_inputs(
    jobs: Sequence[_Job], seed_sets: Sequence[Sequence[Sequence[float]]],
) -> Tuple[np.ndarray, ...]:
    """:func:`_vp_kernel`'s ``(xy0, w, c, lengths, job)`` for the jobs'
    seed sets, one row per distinct seed ``(x, h)`` (its first two
    entries), clipped into the box."""
    seeds = [_distinct_rows(np.clip(np.asarray(s, dtype=float)[:, :2],
                                    -_XY_MAX + 1e-6, _XY_MAX - 1e-6))
             for s in seed_sets]
    counts = [len(s) for s in seeds]
    lengths = np.repeat([len(job.p) for job in jobs], counts)
    w = np.ones((8, int(lengths.sum())))
    start = 0
    for job, count in zip(jobs, counts):
        for _ in range(count):
            cols = slice(start, start + len(job.p))
            w[_P, cols], w[_Q, cols], w[_RSS, cols] = job.p, job.q, job.rss
            start = cols.stop
    c = np.repeat(np.array([_job_constants(job) for job in jobs]).T, counts,
                  axis=1)
    return (np.concatenate(seeds).T.copy(), w, c, lengths,
            np.repeat(np.arange(len(jobs)), counts))


def _lockstep(
    jobs: Sequence[_Job], seed_sets: Sequence[Sequence[Sequence[float]]],
) -> List[Optional[_Best]]:
    """Refine every job's seed set in one kernel run.

    A seed's first two entries are its ``(x, h)``; :func:`_vp_kernel`
    finds ``(Γ, n)`` itself. Returns, per job, its winning seed — the
    first in seed order whose cost is within :data:`_TIE_RTOL` of the
    job's least — or ``None`` when no seed reached a finite cost. A
    winner's residual row and Jacobian cover its own N samples and two
    prior rows. Seed counts and window lengths may differ. Rows interact
    only within their job (the merge rule) and each job's arg-min reads
    only its own rows, so a job's result does not depend on what else
    shares the run. For the same reason a seed whose ``(x, h)`` repeats
    an earlier one of its job bit for bit (after clipping into the box)
    gets no kernel row: it would end bit-identical to its first
    occurrence, which already wins every tie it could.
    """
    out: List[Optional[_Best]] = [None] * len(jobs)
    if not jobs:
        return out
    xy0, w, c, lengths, job_of = _kernel_inputs(jobs, seed_sets)
    perf.count("estimator.lm_rows", xy0.shape[1])
    state = _vp_kernel(xy0, w, c, lengths, job_of)
    winners: List[Tuple[int, int]] = []
    for i in range(len(jobs)):
        ks = np.flatnonzero(job_of == i)
        cost = state[_COST, ks]
        least = float(np.min(cost, where=np.isfinite(cost), initial=np.inf))
        if math.isfinite(least):
            near = cost <= least + _TIE_RTOL * abs(least)
            winners.append((i, int(ks[np.argmax(near)])))
    if not winners:
        return out
    n_max = max(len(jobs[i].p) for i, _k in winners)

    def windows(attr: str) -> np.ndarray:
        win = np.zeros((len(winners), n_max))
        for row, (i, _k) in zip(win, winners):
            values = getattr(jobs[i], attr)
            row[:len(values)] = values
        return win

    ks = [k for _i, k in winners]
    theta = state[:_COST, ks].T.copy()
    terms = _lm_terms(theta, windows("p"), windows("q"))
    r = _lm_residuals(theta, terms, windows("rss"), c[_GP, ks], c[_WG, ks],
                      c[_NPR, ks], c[_WN, ks])
    jac = _lm_jacobian(theta, terms, c[_WG, ks],
                       c[_WN, ks]).transpose(2, 0, 1)
    for (i, _k), th, r_k, j_k in zip(winners, theta, r, jac):
        # The job's own rows, as C-contiguous (N+2, 4) and (N+2,) copies:
        # the covariance's BLAS product may round differently on another
        # layout.
        n = len(jobs[i].p)
        out[i] = (th, np.concatenate((r_k[:n], r_k[n_max:])),
                  np.concatenate((j_k[:n], j_k[n_max:])))
    return out


def _fit_result(
    job: _Job, best: _Best, solver: str, n_seeds: int,
) -> FitResult:
    """A winning kernel row as a reported fit, covariance event included."""
    theta, r, jac = best
    n_rows = len(job.p)
    x, h, gam, n = (float(v) for v in theta)
    pos_std, cov_cond, cov_status = job.est._covariance_from(jac, r, n_rows)
    if not job.use_q:
        h = abs(h)  # symmetric problem: canonical solution keeps h >= 0
    res = FitResult(
        position=Vec2(x, h),
        n=n,
        gamma=gam,
        epsilon=10.0 ** (gam / (5.0 * n)),
        residuals=r[:n_rows].copy(),
        mirror=None if job.use_q else Vec2(x, -h),
        g=x * x + h * h,
        position_std=pos_std,
        solver=solver,
        n_candidates=n_seeds,
        cov_cond=cov_cond,
        cov_status=cov_status,
        warm_started=solver == "warm-start",
    )
    job.est._report_covariance(res)
    return res


def _warm_gate(job: _Job, best: Optional[_Best]) -> str:
    """Why a warm fit must be rejected (``""`` when it is accepted).

    The warm basin is stale when its seed did not converge, when it ran
    to the ±18 m position bound (a lone warm row can slide down a flat
    likelihood to a box corner, where the cold seeds would not go), or
    when the RSS-domain RMSE blew past ``max(WARM_BLOWUP * previous_rmse,
    WARM_FLOOR_DB)``.
    """
    if best is None:
        return "diverged"
    if np.any(np.abs(best[0][:2]) >= _XY_MAX):
        return "at-bound"
    resid = best[1][:len(job.p)]
    rmse = float(np.sqrt(np.mean(resid * resid)))
    if not math.isfinite(rmse):
        return "diverged"
    if rmse > max(WARM_BLOWUP * job.warm.rss_rmse, WARM_FLOOR_DB):
        return "residual blow-up"
    return ""


def _cold_result(job: _Job, best: Optional[_Best], n_seeds: int) -> FitResult:
    """A cold fit's winning row as a fit; no finite seed is a typed error."""
    if best is None:
        raise DegenerateGeometryError(
            "no path-loss exponent yielded a valid solve")
    return _fit_result(job, best, "gauss-newton", n_seeds)


def _solve_jobs(
    jobs: Sequence[_Job], return_exceptions: bool,
) -> List[Union[FitResult, BaseException]]:
    """Solve validated jobs in one kernel run, plus one after a warm rejection.

    A job whose warm state is usable refines its one warm seed; every
    other job (a first fix, or a warm state that is unusable) refines the
    full :meth:`EllipticalEstimator._initial_candidates` seed set. Both
    kinds share one :func:`_lockstep` run. A rejected warm fit then
    re-runs cold, exactly like a first fix and with no blow-up gate, in a
    second run of the rejected jobs alone. Rows interact only within
    their job, so a job's result does not depend on what else shares a
    run. Jobs settle in a fixed order (warm, then cold, then rejected), so
    the events they emit do not depend on the grouping either.
    ``refine=False`` jobs take the linearised Eq. 4/5 path over the full
    grid instead and ignore their warm state.
    """
    out: List[Any] = [None] * len(jobs)

    def settle(i: int, solve: Any, *args: Any) -> None:
        job = jobs[i]
        try:
            res = solve(*args)
        except ReproError as exc:
            if not return_exceptions:
                raise
            out[i] = exc
            return
        res.warm = job.est._warm_state_from(res, job.use_q, len(job.p))
        out[i] = res

    warm_ids: List[int] = []
    cold_ids: List[int] = []
    for i, job in enumerate(jobs):
        if not job.est.refine:
            settle(i, job.est._fit_linearized, job.p, job.q, job.rss,
                   job.use_q)
        elif job.warm is not None and job.est._warm_usable(job.warm):
            warm_ids.append(i)
        else:
            cold_ids.append(i)

    def cold_seeds(ids: List[int]) -> List[List[Seed]]:
        return [jobs[i].est._initial_candidates(jobs[i].p, jobs[i].q,
                                                jobs[i].rss, jobs[i].use_q)
                for i in ids]

    seeds = ([[jobs[i].est._warm_seed(jobs[i].warm, jobs[i].use_q)]
              for i in warm_ids] + cold_seeds(cold_ids))
    bests = _lockstep([jobs[i] for i in warm_ids + cold_ids], seeds)
    n_warm = len(warm_ids)
    rejected: List[int] = []
    for i, job_seeds, best in zip(warm_ids, seeds, bests):
        job = jobs[i]
        reason = _warm_gate(job, best)
        if reason:
            job.est._warm_reject(reason, job.warm, len(job.p))
            rejected.append(i)
            continue
        settle(i, _fit_result, job, best, "warm-start", len(job_seeds))
        perf.count("estimator.warm_fits")
    for i, job_seeds, best in zip(cold_ids, seeds[n_warm:], bests[n_warm:]):
        settle(i, _cold_result, jobs[i], best, len(job_seeds))

    seeds = cold_seeds(rejected)
    for i, job_seeds, best in zip(rejected, seeds,
                                  _lockstep([jobs[i] for i in rejected],
                                            seeds)):
        settle(i, _cold_result, jobs[i], best, len(job_seeds))
    return out


@perf.profiled("estimator.fit_batch")
def fit_batch(
    requests: Sequence[FitRequest],
    default_estimator: Optional[EllipticalEstimator] = None,
    return_exceptions: bool = False,
) -> List[Union[FitResult, BaseException]]:
    """Solve N independent elliptical regressions as one batched program.

    Warm fits, first fixes and rejected warm fits alike run through the
    lockstep separable LM kernel, one NumPy program for the batch (and one
    more for any rejected warm fits), whatever the window lengths, instead
    of N Python solver loops. Results are **bit-identical** to the
    sequential loop ``[est.fit(r.p, r.q, r.rss, warm=r.warm) for r in
    requests]``: a sequential fit is itself a batch of one through the
    same code, and every row sum covers the row's own samples alone,
    whatever else shares the run.

    With ``return_exceptions`` the failure of one request (e.g. degenerate
    geometry) becomes the exception object in its slot instead of
    propagating — the batch analogue of a per-session try/except.
    """
    results: List[Any] = []
    jobs: List[_Job] = []
    slots: List[int] = []
    for req in requests:
        est = req.estimator if req.estimator is not None else default_estimator
        if est is None:
            est = EllipticalEstimator()
        try:
            p, q, rss = est._validate(req.p, req.q, req.rss)
        except ReproError as exc:
            if not return_exceptions:
                raise
            results.append(exc)
            continue
        slots.append(len(results))
        results.append(None)
        jobs.append(_Job(est, p, q, rss, _uses_q(q), req.warm))
    for slot, res in zip(slots, _solve_jobs(jobs, return_exceptions)):
        results[slot] = res
    return results
