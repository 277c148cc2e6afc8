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

#: Half-width of the exponent neighbourhood searched by a warm fit —
#: roughly one environment class (the LOS/P_LOS/NLOS prior centres sit
#: ~0.3 apart), vs the full 67-point cold grid.
WARM_N_STEP = 0.3

#: The exponent grid's ends, which clip the warm seeds' exponents.
_N_LO = float(DEFAULT_N_GRID.min())
_N_HI = float(DEFAULT_N_GRID.max())

#: The spread of exponents whose linearised solutions seed a cold fit.
_SEED_N_GRID = DEFAULT_N_GRID[::len(DEFAULT_N_GRID) // 8]

#: Natural log of 10, shared by the analytic Jacobian.
_LN10 = math.log(10.0)

#: Levenberg-Marquardt parameter bounds (x, h, Γ, n). The position bounds
#: reflect BLE's usable sensing range (~15 m, Sec. 7.5): beyond it the
#: advertisements would not decode, so a solution out there is an artefact
#: of a flat likelihood.
_GN_LO = np.array([-18.0, -18.0, -95.0, 1.0])
_GN_HI = np.array([18.0, 18.0, -25.0, 5.0])

#: Two LM rows of one job whose ``(x, h, Γ, n)`` differ by at most this
#: much (metres, metres, dB, exponent) have met: the higher-cost one
#: freezes, since it would only retrace the other's path to the same
#: optimum. Looser tolerances move warm winners by metres.
_MERGE_TOL = np.array([0.01, 0.01, 0.1, 0.005])

#: Upper-triangle ``(a, c)`` index pairs of the 4×4 normal matrix, and the
#: ``(4, 4)`` map from each entry to its pair (both triangles share a pair).
_TRIU_A, _TRIU_C = np.triu_indices(4)
_TRIU_OF = np.empty((4, 4), dtype=np.intp)
_TRIU_OF[_TRIU_A, _TRIU_C] = _TRIU_OF[_TRIU_C, _TRIU_A] = np.arange(10)

#: One ``(x, h, Γ, n)`` starting point for the nonlinear refinement.
Seed = Tuple[float, float, float, float]


@dataclass(frozen=True)
class WarmStartState:
    """The previous fix's solution, carried forward to warm-start the next.

    Consecutive tracking windows overlap almost entirely, so the previous
    window's ``(x, h, Γ, n)`` is an excellent Gauss-Newton seed for the next
    solve — the warm path refines a handful of near-optimum seeds instead
    of re-running the full exponent-grid cold start. ``rss_rmse`` is the
    residual scale the warm fit is judged against (a blow-up means the
    environment changed and the warm basin is stale); ``stream_t`` lets
    streaming callers age warm states out.

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
        import dataclasses

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
        refines it directly (a handful of seeds in a ±:data:`WARM_N_STEP`
        exponent neighbourhood) instead of re-running the full cold grid;
        a warm fit whose residuals blow up is rejected — emitting
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
        """A warm state worth seeding from: finite, with an in-grid exponent.

        A refused state is one ``solver.warm_unusable`` signal.
        """
        vals = (warm.x, warm.h, warm.gamma, warm.n, warm.rss_rmse)
        if not all(math.isfinite(v) for v in vals):
            reason = "non-finite"
        elif warm.rss_rmse < 0.0:
            reason = "negative-rmse"
        elif not _N_LO - WARM_N_STEP <= warm.n <= _N_HI + WARM_N_STEP:
            reason = "n-outside-window"
        else:
            return True
        obs.signal("solver.warm_unusable", reason=reason, warm_n=warm.n)
        return False

    def _warm_seeds(self, warm: WarmStartState, use_q: bool) -> List[Seed]:
        """Seed set for a warm fit: previous optimum ± one exponent step.

        Three seeds bracket the previous exponent inside the clipped grid
        (vs the cold path's ~18), so a drifting environment within one
        class is tracked without the full grid. At a grid edge the clip
        makes them coincide: two of them when the previous exponent lies
        on or past the edge, all three when it lies a full step past it.
        :func:`_lockstep` refines each distinct seed once.
        """
        h0 = warm.h if use_q else abs(warm.h)
        n0 = float(np.clip(warm.n, _N_LO, _N_HI))
        n_lo = float(np.clip(warm.n - WARM_N_STEP, _N_LO, _N_HI))
        n_hi = float(np.clip(warm.n + WARM_N_STEP, _N_LO, _N_HI))
        return [(warm.x, h0, warm.gamma, n0),
                (warm.x, h0, warm.gamma, n_lo),
                (warm.x, h0, warm.gamma, n_hi)]

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
        ``h >= 0``, the canonical side of the mirror ambiguity.
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
                              h0 if use_q else abs(h0),
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
#: offsets ``x + p`` and ``h + q``, the distance clamped at 0.1 m, and its
#: ``log10``. An accepted trial's Jacobian is built from them.
_Terms = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _lm_terms(theta: np.ndarray, p: np.ndarray, q: np.ndarray) -> _Terms:
    """:data:`_Terms` of ``theta`` over the batch-first ``(B, N)`` windows."""
    dx = theta[:, 0:1] + p
    dy = theta[:, 1:2] + q
    le = np.maximum(np.hypot(dx, dy), 0.1)
    return dx, dy, le, np.log10(le)


def _lm_residuals(
    theta: np.ndarray, terms: _Terms, rss: np.ndarray,
    gp: np.ndarray, wg: np.ndarray, npr: np.ndarray, wn: np.ndarray,
    pad: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stacked RSS-domain + prior residuals, shape ``(B, N + 2)``.

    The linearised solve of Eq. 4 puts the measurement noise inside the
    regressor ``y = 10^(-RS/(5n))`` (an errors-in-variables setup that
    shrinks the geometry), so it only seeds the refinement; the final
    estimate minimises Eq. 5's objective — squared RSS-domain residuals —
    directly, where the noise sits in the response.

    Row layout: N data rows, then the Γ-prior row, then the n-prior row.
    The prior weights scale with ``sqrt(N)`` of the row's own window so
    the priors keep pace with the data term instead of washing out on long
    traces; an absent prior has weight 0. ``pad`` (``(B, N)``, True past a
    shorter window's end) makes those samples' residuals ``-0.0``, the one
    IEEE value whose addition changes no sum. ``terms`` are
    :func:`_lm_terms` of ``theta``.
    """
    r_data = rss - (theta[:, 2:3] - 10.0 * theta[:, 3:4] * terms[3])
    if pad is not None:
        np.copyto(r_data, -0.0, where=pad)
    r_pg = (wg * (theta[:, 2] - gp))[:, None]
    r_pn = (wn * (theta[:, 3] - npr))[:, None]
    return np.concatenate([r_data, r_pg, r_pn], axis=1)


def _lm_jacobian(
    theta: np.ndarray, terms: _Terms, wg: np.ndarray, wn: np.ndarray,
    pad: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Analytic Jacobian of :func:`_lm_residuals`, shape ``(N+2, 4, B)``.

    Rows, then parameters, then batch, for :func:`_lm_normal_equations`,
    written through transposes from the batch-first ``terms`` of
    ``theta``: ``hypot`` and ``log10`` run once, in :func:`_lm_terms`.
    ``tests/test_lm_kernel.py`` checks that this gives the bits of a
    rows-first evaluation of the two on the NumPy build in use. Padded
    samples (``pad``) get all-``+0.0`` rows: their JᵀJ terms are ``+0.0``
    and their Jᵀr terms ``+0.0 * -0.0 = -0.0``, so neither sum moves.
    """
    dx, dy, le, log_le = terms
    n_rows = dx.shape[1]
    # Inside the 0.1 m clamp the distance no longer responds to (x, h);
    # ``le > 0.1`` is ``hypot > 0.1``, NaN included.
    coef = np.where(le > 0.1,
                    (10.0 / _LN10) * theta[:, 3:4] / (le * le), 0.0)
    j = np.zeros((n_rows + 2, 4, theta.shape[0]))
    j[:n_rows, 0] = (coef * dx).T
    j[:n_rows, 1] = (coef * dy).T
    j[:n_rows, 2] = -1.0
    j[:n_rows, 3] = (10.0 * log_le).T
    if pad is not None:
        np.copyto(j[:n_rows], 0.0, where=pad.T[:, None, :])
    j[n_rows, 2] = wg
    j[n_rows + 1, 3] = wn
    return j


def _lm_normal_equations(
    j: np.ndarray, r: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(JᵀJ, Jᵀr)`` as ``(4, 4, B)`` and ``(4, B)`` arrays.

    ``j`` is :func:`_lm_jacobian`'s ``(N+2, 4, B)`` and ``r`` the
    ``(B, N+2)`` residuals. Both sums reduce axis 0 of a C-contiguous
    product, so every entry adds its N+2 row terms one at a time, in row
    order, with 10·B- (JᵀJ) and 4·B-element (Jᵀr) inner loops. A
    batch-first ``(B, N+2, 4)`` Jacobian's ``sum(axis=1)`` adds in that
    same order with 16- and 4-element inner loops, so the results are
    bit-identical to it, and each batch column to that column summed alone.
    Only the 10 upper-triangle products of JᵀJ are formed: IEEE products
    commute, so entry ``(c, a)`` is the same sum of the same terms as
    ``(a, c)``. They are multiplied in place into the first gathered
    factor, so two ``(N+2, 10, B)`` arrays are alive at once, not three.
    """
    pairs = np.take(j, _TRIU_A, axis=1)
    pairs *= np.take(j, _TRIU_C, axis=1)
    jtj = np.sum(pairs, axis=0)[_TRIU_OF]
    grad = np.sum(j * r.T[:, None, :], axis=0)
    return jtj, grad


def _lm_cost(r: np.ndarray) -> np.ndarray:
    """Each row's ``sum(r * r)``, its terms added one at a time in order.

    ``cumsum`` along the contiguous row axis accumulates sequentially for
    any batch size, so the ``-0.0`` residuals of a padded window leave a
    row's cost bit for bit what its own window gives. ``np.sum`` adds
    pairwise in blocks that depend on the row length — and on a
    ``(M, 1)`` array along axis 0 too.
    """
    return np.cumsum(r * r, axis=1)[:, -1]


def _job_pairs(job: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Every ordered pair ``(a, b)``, ``a != b``, of rows of one job."""
    if job is None:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    same = job[:, None] == job[None, :]
    np.fill_diagonal(same, False)
    return np.nonzero(same)


def _lm_kernel(
    theta0: np.ndarray, p: np.ndarray, q: np.ndarray, rss: np.ndarray,
    gp: np.ndarray, wg: np.ndarray, npr: np.ndarray, wn: np.ndarray,
    job: Optional[np.ndarray] = None, pad: Optional[np.ndarray] = None,
    max_iter: int = 60,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep projected Levenberg-Marquardt over a batch of seeds.

    This is the one nonlinear solver of the elliptical regression: cold,
    warm and batched fits all run through it. Every operation is either
    elementwise, a reduction along the row axis of a C-contiguous array, or
    a per-slice LAPACK call — the exact set of NumPy operations whose
    batched results are bit-identical to running each slice alone. Every
    row reduction adds its terms one at a time, in row order:

    - the cost (:func:`_lm_cost`) is a ``cumsum`` along the contiguous row
      axis of the batch-first ``(B, N+2)`` residuals;
    - JᵀJ and Jᵀr (:func:`_lm_normal_equations`) add over the leading
      axis of the rows-first ``(N+2, 4, B)`` Jacobian.

    So windows of different lengths share one run: each is padded to the
    longest, and ``pad`` (``(B, N)``, True on the padding, ``None`` when
    every window is full) makes the padded samples add exactly nothing to
    the residual row's cost, JᵀJ or Jᵀr. The prior rows follow the
    padding, so a row's sums are its own window's, bit for bit.

    Each unit of work is done once. A trial point is evaluated once: its
    residuals come with the per-sample terms (:func:`_lm_terms`) that an
    accepted trial's Jacobian is built from. JᵀJ and Jᵀr are carried per
    live row and formed only for rows whose trial was accepted and that
    stay live; a rejected step changes only λ, so the row's system is the
    one it already holds. Both give the bits recomputing them would.

    Rows of one ``job`` (``(B,)`` ids; ``None`` puts every row in a job
    of its own) are seeds of one problem. After each iteration but the
    last, a live row that lies within :data:`_MERGE_TOL` of a lower-cost
    row of its job, live or frozen, freezes (on equal costs the later row
    does): it has met a basin another row already holds. Every other row
    freezes when it converges, gets stuck or fails. A frozen row is
    removed from the compacted working set and never changes again, so a
    job's rows return bit-identical ``(theta, residuals, cost)`` whatever
    other jobs share the run — the property :func:`fit_batch` relies on —
    while late iterations only pay for the rows still moving.
    ``einsum``/``matmul`` reductions are deliberately avoided (their
    batched forms are *not* per-slice bit-identical).
    """
    theta_out = theta0.copy()
    terms = _lm_terms(theta_out, p, q)
    r = _lm_residuals(theta_out, terms, rss, gp, wg, npr, wn, pad)
    cost_out = _lm_cost(r)
    eye = np.eye(4)[:, :, None]

    # Compacted working set: rows freeze by being *removed* (their state
    # scattered back into the full-size outputs), so per-iteration cost
    # tracks the live count instead of the original batch size. Row-gather
    # preserves per-slice bit-identity for every op used here — a gathered
    # subset is a fresh C-contiguous array whose per-row reductions see the
    # exact same operand layout.
    idx = np.flatnonzero(np.isfinite(cost_out))
    theta = theta_out[idx]
    cost = cost_out[idx]
    pp, qq, ss = p[idx], q[idx], rss[idx]
    gpp, wgg, nprr, wnn = gp[idx], wg[idx], npr[idx], wn[idx]
    padd = None if pad is None else pad[idx]
    lam = np.full(idx.size, 1e-3)
    jtj, grad = _lm_normal_equations(
        _lm_jacobian(theta, tuple(t[idx] for t in terms), wgg, wnn, padd),
        r[idx])
    normal_rows = idx.size
    # Merge candidates: ordered (a, b) pairs of one job whose row a is live.
    pair_a, pair_b = _job_pairs(job)
    live = np.zeros(len(theta_out), dtype=bool)
    live[idx] = True
    keep_pair = live[pair_a]
    pair_a, pair_b = pair_a[keep_pair], pair_b[keep_pair]
    merged_rows = 0

    n_iter = 0
    while idx.size and n_iter < max_iter:
        n_iter += 1
        finite = (np.isfinite(jtj).all(axis=(0, 1))
                  & np.isfinite(grad).all(axis=0))
        # A parameter on its bound whose descent direction points out of
        # the box is held: its row and column of the damped system become
        # identity and its right-hand side 0, so the free parameters solve
        # the reduced system instead of crawling along the bound. A
        # non-finite row holds every parameter (zero step), so one LAPACK
        # batch serves every row without a bad slice poisoning it.
        free = finite & ~(((theta <= _GN_LO) & (grad.T > 0.0))
                          | ((theta >= _GN_HI) & (grad.T < 0.0))).T
        lhs = np.where(free[:, None] & free[None, :], jtj + lam * eye, eye)
        rhs = np.where(free, grad, 0.0)
        try:
            step = np.linalg.solve(lhs.transpose(2, 0, 1),
                                   rhs.T[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            break
        trial = np.clip(theta - step, _GN_LO, _GN_HI)
        terms = _lm_terms(trial, pp, qq)
        r_t = _lm_residuals(trial, terms, ss, gpp, wgg, nprr, wnn, padd)
        cost_t = _lm_cost(r_t)
        better = finite & np.isfinite(cost_t) & (cost_t < cost)
        theta = np.where(better[:, None], trial, theta)
        gain = np.where(better, cost - cost_t, 0.0)
        cost = np.where(better, cost_t, cost)
        lam = np.where(better, np.maximum(lam / 3.0, 1e-10),
                       np.where(finite, lam * 5.0, lam))
        done = better & (gain <= 1e-10 * np.maximum(cost, 1e-12))
        stuck = finite & ~better & (lam > 1e8)
        keep = finite & ~(done | stuck)
        if pair_a.size and n_iter < max_iter:
            theta_out[idx] = theta
            cost_out[idx] = cost
            live[idx] = keep
            a, b = pair_a, pair_b
            met = (live[a]
                   & ((cost_out[b] < cost_out[a])
                      | ((cost_out[b] == cost_out[a]) & (b < a)))
                   & (np.abs(theta_out[a] - theta_out[b])
                      <= _MERGE_TOL).all(axis=1))
            if met.any():
                live[a[met]] = False
                merged = ~live[idx] & keep
                merged_rows += int(np.count_nonzero(merged))
                keep &= ~merged
        moved = np.flatnonzero(better & keep)
        if moved.size and n_iter < max_iter:
            # When every live row moved, views instead of gathered copies.
            rows = moved if moved.size < better.size else slice(None)
            jtj[:, :, rows], grad[:, rows] = _lm_normal_equations(
                _lm_jacobian(trial[rows], tuple(t[rows] for t in terms),
                             wgg[rows], wnn[rows],
                             None if padd is None else padd[rows]),
                r_t[rows])
            normal_rows += moved.size
        if not np.all(keep):
            theta_out[idx] = theta
            cost_out[idx] = cost
            idx = idx[keep]
            theta, cost, lam = theta[keep], cost[keep], lam[keep]
            jtj, grad = jtj[:, :, keep], grad[:, keep]
            pp, qq, ss = pp[keep], qq[keep], ss[keep]
            gpp, wgg = gpp[keep], wgg[keep]
            nprr, wnn = nprr[keep], wnn[keep]
            if padd is not None:
                padd = padd[keep]
            if pair_a.size:
                keep_pair = live[pair_a]
                pair_a, pair_b = pair_a[keep_pair], pair_b[keep_pair]
    if idx.size:
        theta_out[idx] = theta
        cost_out[idx] = cost
    # A row's residuals are a function of its theta alone: evaluated again
    # here, from the final thetas, instead of carried through the loop.
    r_out = _lm_residuals(theta_out, _lm_terms(theta_out, p, q), rss,
                          gp, wg, npr, wn, pad)
    perf.count("estimator.lm_kernel_calls")
    perf.count("estimator.lm_iterations", n_iter)
    perf.count("estimator.lm_normal_rows", normal_rows)
    perf.count("estimator.lm_rows_merged", merged_rows)
    if n_iter == max_iter:
        perf.count("estimator.lm_max_iter_calls")
    return theta_out, r_out, cost_out


#: A job's winning kernel row: ``(theta, residual row, Jacobian)``.
_Best = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` with every bit-for-bit repeat of an earlier row dropped.

    Compared on bit patterns, not with float ``==``, which would merge
    ``-0.0`` with ``0.0`` and never match a NaN.
    """
    first: Dict[bytes, int] = {}
    for k, row in enumerate(rows):
        first.setdefault(row.tobytes(), k)
    return rows[list(first.values())]


def _lockstep(
    jobs: Sequence[_Job], seed_sets: Sequence[List[Seed]],
) -> List[Optional[_Best]]:
    """Refine every job's seed set in one kernel run.

    Returns, per job, its winning seed — lowest total cost, the first seed
    on ties — or ``None`` when no seed reached a finite cost. Windows of
    different lengths are padded to the longest (:func:`_lm_kernel`'s
    ``pad``); a winner's residual row and Jacobian are cut back to its own
    N samples and two prior rows. Seed counts may differ. Rows interact
    only within their job (the merge rule) and each job's arg-min reads
    only its own rows, so a job's result does not depend on what else
    shares the run. For the same reason a seed that repeats an earlier one
    of its job bit for bit (after clipping into the box) gets no kernel
    row: it would end bit-identical to its first occurrence, which already
    wins every tie it could.
    """
    out: List[Optional[_Best]] = [None] * len(jobs)
    if not jobs:
        return out
    seeds = [_distinct_rows(np.clip(np.asarray(s, dtype=float),
                                    _GN_LO + 1e-6, _GN_HI - 1e-6))
             for s in seed_sets]
    counts = [len(s) for s in seeds]
    lengths = [len(job.p) for job in jobs]
    n_max = max(lengths)

    def stack(rows: List[Any]) -> np.ndarray:
        return np.repeat(np.asarray(rows, dtype=float), counts, axis=0)

    def windows(attr: str) -> np.ndarray:
        w = np.zeros((len(jobs), n_max))
        for k, job in enumerate(jobs):
            w[k, :lengths[k]] = getattr(job, attr)
        return np.repeat(w, counts, axis=0)

    ests = [job.est for job in jobs]
    root_n = [math.sqrt(n) for n in lengths]
    p, q, rss = windows("p"), windows("q"), windows("rss")
    gp = stack([0.0 if e.gamma_prior is None else e.gamma_prior
                for e in ests])
    wg = stack([0.0 if e.gamma_prior is None else rn / e.gamma_prior_sigma
                for e, rn in zip(ests, root_n)])
    npr = stack([0.0 if e.n_prior is None else e.n_prior for e in ests])
    wn = stack([0.0 if e.n_prior is None else rn / N_PRIOR_SIGMA
                for e, rn in zip(ests, root_n)])
    job_of = np.repeat(np.arange(len(jobs)), counts)
    pad = None
    if min(lengths) < n_max:
        pad = np.arange(n_max) >= np.repeat(lengths, counts)[:, None]
    theta0 = np.concatenate(seeds)
    perf.count("estimator.lm_rows", len(theta0))

    theta, r, cost = _lm_kernel(theta0, p, q, rss, gp, wg, npr, wn,
                                job_of, pad)
    winners: List[Tuple[int, int]] = []
    start = 0
    for i, count in enumerate(counts):
        k = start + int(np.argmin(cost[start:start + count]))
        start += count
        if math.isfinite(float(cost[k])):
            winners.append((i, k))
    if winners:
        ks = [k for _i, k in winners]
        jac = _lm_jacobian(theta[ks], _lm_terms(theta[ks], p[ks], q[ks]),
                           wg[ks], wn[ks]).transpose(2, 0, 1)
        for (i, k), j_k in zip(winners, jac):
            # The job's own rows, as C-contiguous (N+2, 4) and (N+2,)
            # copies: the covariance's BLAS product may round differently
            # on another layout.
            n = lengths[i]
            out[i] = (theta[k], np.concatenate((r[k, :n], r[k, n_max:])),
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

    The warm basin is stale when no seed converged or the RSS-domain RMSE
    blew past ``max(WARM_BLOWUP * previous_rmse, WARM_FLOOR_DB)``.
    """
    if best is None:
        return "diverged"
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
    """Solve validated jobs: a warm kernel phase, then a cold kernel phase.

    A job whose warm state is usable first refines its few warm seeds; a
    rejected warm fit joins the cold phase exactly like a first fix, with
    the full :meth:`EllipticalEstimator._initial_candidates` seed set and
    no blow-up gate. Each phase is one :func:`_lockstep` run, so a job's
    result does not depend on the other jobs. ``refine=False`` jobs take
    the linearised Eq. 4/5 path over the full grid instead and ignore
    their warm state.
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

    warm_jobs = [jobs[i] for i in warm_ids]
    warm_seeds = [job.est._warm_seeds(job.warm, job.use_q)
                  for job in warm_jobs]
    for i, job, seeds, best in zip(warm_ids, warm_jobs, warm_seeds,
                                   _lockstep(warm_jobs, warm_seeds)):
        reason = _warm_gate(job, best)
        if reason:
            job.est._warm_reject(reason, job.warm, len(job.p))
            cold_ids.append(i)
            continue
        settle(i, _fit_result, job, best, "warm-start", len(seeds))
        perf.count("estimator.warm_fits")

    cold_jobs = [jobs[i] for i in cold_ids]
    cold_seeds = [job.est._initial_candidates(job.p, job.q, job.rss,
                                              job.use_q)
                  for job in cold_jobs]
    for i, job, seeds, best in zip(cold_ids, cold_jobs, cold_seeds,
                                   _lockstep(cold_jobs, cold_seeds)):
        settle(i, _cold_result, job, best, len(seeds))
    return out


@perf.profiled("estimator.fit_batch")
def fit_batch(
    requests: Sequence[FitRequest],
    default_estimator: Optional[EllipticalEstimator] = None,
    return_exceptions: bool = False,
) -> List[Union[FitResult, BaseException]]:
    """Solve N independent elliptical regressions as one batched program.

    Warm fits, first fixes and rejected warm fits alike run through the
    lockstep LM kernel, one NumPy program per phase, whatever the window
    lengths, instead of N Python solver loops. Results are
    **bit-identical** to the sequential loop ``[est.fit(r.p, r.q, r.rss,
    warm=r.warm) for r in requests]``: a sequential fit is itself a batch
    of one through the same code, every row reduction adds its terms in
    row order, and the padding that stacks a shorter window adds exactly
    nothing to any of them.

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
