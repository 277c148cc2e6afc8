"""The four-parameter LM kernel the separable solve replaced.

This is ``repro.core.estimator``'s lockstep Levenberg-Marquardt kernel as
it stood when it refined all four of ``(x, h, Γ, n)`` and rebuilt every
live row's Jacobian and normal equations every iteration: no padding, no
merge rule. Its text is unchanged but for the kernel's perf counters,
removed so that running it does not move the estimator's telemetry, and
for the constants it used to import, which now live here.

``tests/test_lm_kernel.py`` checks that the separable kernel, started
from the same ``(x, h)``, reaches this kernel's optimum, and
``benchmarks/bench_perf_hotpaths.py`` loads this file by path as the
``estimator_lm_kernel`` and ``estimator_warm_start`` benches' "before".
It imports nothing from the tests package, so it can be loaded alone.
"""

import math
from typing import Tuple

import numpy as np

#: Natural log of 10, shared by the analytic Jacobian.
_LN10 = math.log(10.0)

#: Parameter bounds (x, h, Γ, n).
_GN_LO = np.array([-18.0, -18.0, -95.0, 1.0])
_GN_HI = np.array([18.0, 18.0, -25.0, 5.0])

#: An accepted step that moves a row by at most this much in every
#: parameter (metres, metres, dB, exponent) ends the row.
_STEP_TOL = np.array([1e-3, 1e-3, 0.01, 1e-4])

#: Upper-triangle ``(a, c)`` index pairs of the 4×4 normal matrix, and the
#: ``(4, 4)`` map from each entry to its pair (both triangles share a pair).
_TRIU_A, _TRIU_C = np.triu_indices(4)
_TRIU_OF = np.empty((4, 4), dtype=np.intp)
_TRIU_OF[_TRIU_A, _TRIU_C] = _TRIU_OF[_TRIU_C, _TRIU_A] = np.arange(10)

#: The exponent half-step between the three seeds of a warm fit: the
#: previous optimum's exponent and that exponent ± this step.
WARM_N_STEP = 0.3


def warm_seeds(x: float, h: float, gamma: float, n: float) -> np.ndarray:
    """The three warm seeds this kernel refined for one job, ``(3, 4)``:
    the previous optimum with its exponent and the exponent ± one step,
    each clipped to the cold exponent grid ``[1.2, 4.5]``."""
    ns = np.clip([n, n - WARM_N_STEP, n + WARM_N_STEP], 1.2, 4.5)
    return np.array([[x, h, gamma, n_k] for n_k in ns])


def _lm_residuals(
    theta: np.ndarray, p: np.ndarray, q: np.ndarray, rss: np.ndarray,
    gp: np.ndarray, wg: np.ndarray, npr: np.ndarray, wn: np.ndarray,
) -> np.ndarray:
    """Stacked RSS-domain + prior residuals, shape ``(B, N + 2)``.

    The linearised solve of Eq. 4 puts the measurement noise inside the
    regressor ``y = 10^(-RS/(5n))`` (an errors-in-variables setup that
    shrinks the geometry), so it only seeds the refinement; the final
    estimate minimises Eq. 5's objective — squared RSS-domain residuals —
    directly, where the noise sits in the response.

    Row layout: N data rows, then the Γ-prior row, then the n-prior row.
    The prior weights scale with ``sqrt(N)`` so the priors keep pace with
    the data term instead of washing out on long traces; an absent prior
    has weight 0, so every batch member has the same row count — a
    requirement for per-slice bit-identical reductions.
    """
    x = theta[:, 0:1]
    h = theta[:, 1:2]
    gam = theta[:, 2:3]
    n = theta[:, 3:4]
    le = np.maximum(np.hypot(x + p, h + q), 0.1)
    r_data = rss - (gam - 10.0 * n * np.log10(le))
    r_pg = (wg * (theta[:, 2] - gp))[:, None]
    r_pn = (wn * (theta[:, 3] - npr))[:, None]
    return np.concatenate([r_data, r_pg, r_pn], axis=1)


def _lm_jacobian(
    theta: np.ndarray, p: np.ndarray, q: np.ndarray,
    wg: np.ndarray, wn: np.ndarray,
) -> np.ndarray:
    """Analytic Jacobian of :func:`_lm_residuals`, shape ``(N+2, 4, B)``.

    Rows, then parameters, then batch, for :func:`_lm_normal_equations`;
    ``p`` and ``q`` are the batch-first ``(B, N)`` windows, read through
    their transposes.
    """
    n_rows = p.shape[1]
    x, h, _gam, n = theta.T
    dx = x + p.T
    dy = h + q.T
    l = np.hypot(dx, dy)
    le = np.maximum(l, 0.1)
    # Inside the 0.1 m clamp the distance no longer responds to (x, h).
    coef = np.where(l > 0.1, (10.0 / _LN10) * n / (le * le), 0.0)
    j = np.zeros((n_rows + 2, 4, theta.shape[0]))
    j[:n_rows, 0] = coef * dx
    j[:n_rows, 1] = coef * dy
    j[:n_rows, 2] = -1.0
    j[:n_rows, 3] = 10.0 * np.log10(le)
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
    ``(a, c)``.
    """
    pairs = np.take(j, _TRIU_A, axis=1) * np.take(j, _TRIU_C, axis=1)
    jtj = np.sum(pairs, axis=0)[_TRIU_OF]
    grad = np.sum(j * r.T[:, None, :], axis=0)
    return jtj, grad


def _lm_kernel(
    theta0: np.ndarray, p: np.ndarray, q: np.ndarray, rss: np.ndarray,
    gp: np.ndarray, wg: np.ndarray, npr: np.ndarray, wn: np.ndarray,
    max_iter: int = 60,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep projected Levenberg-Marquardt over a batch of seeds.

    This is the one nonlinear solver of the elliptical regression: cold,
    warm and batched fits all run through it. Every operation is either
    elementwise, a reduction along the row axis of a C-contiguous array, or
    a per-slice LAPACK call — the exact set of NumPy operations whose
    batched results are bit-identical to running each slice alone. Both
    row reductions add their terms one at a time, in row order:

    - the cost ``cumsum(r * r, axis=1)[:, -1]`` adds along the contiguous
      row axis of the batch-first ``(B, N+2)`` residuals one term at a
      time, which is why the residuals (and the ``(B, N)`` windows) keep
      that layout;
    - JᵀJ and Jᵀr (:func:`_lm_normal_equations`) add row by row, in row
      order, over the leading axis of the rows-first ``(N+2, 4, B)``
      Jacobian.

    Converged, stuck or failed rows freeze by being removed from the
    compacted working set and never change again, so a batch of B
    systems returns bit-identical ``(theta, residuals, cost)`` to B
    separate batch-of-1 runs — while late iterations only pay for the rows
    still moving. This is the property :func:`fit_batch` relies on;
    ``einsum``/``matmul`` reductions are deliberately avoided (their
    batched forms are *not* per-slice bit-identical).
    """
    theta_out = theta0.copy()
    r_out = _lm_residuals(theta_out, p, q, rss, gp, wg, npr, wn)
    cost_out = np.cumsum(r_out * r_out, axis=1)[:, -1]
    eye = np.eye(4)[:, :, None]

    # Compacted working set: rows freeze by being *removed* (their state
    # scattered back into the full-size outputs), so per-iteration cost
    # tracks the live count instead of the original batch size. Row-gather
    # preserves per-slice bit-identity for every op used here — a gathered
    # subset is a fresh C-contiguous array whose per-row reductions see the
    # exact same operand layout.
    idx = np.flatnonzero(np.isfinite(cost_out))
    theta = theta_out[idx]
    r = r_out[idx]
    cost = cost_out[idx]
    pp, qq, ss = p[idx], q[idx], rss[idx]
    gpp, wgg, nprr, wnn = gp[idx], wg[idx], npr[idx], wn[idx]
    lam = np.full(idx.size, 1e-3)

    n_iter = 0
    while idx.size and n_iter < max_iter:
        n_iter += 1
        jtj, grad = _lm_normal_equations(
            _lm_jacobian(theta, pp, qq, wgg, wnn), r)
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
        r_t = _lm_residuals(trial, pp, qq, ss, gpp, wgg, nprr, wnn)
        cost_t = np.cumsum(r_t * r_t, axis=1)[:, -1]
        better = finite & np.isfinite(cost_t) & (cost_t < cost)
        still = (np.abs(trial - theta) <= _STEP_TOL).all(axis=1)
        theta = np.where(better[:, None], trial, theta)
        r = np.where(better[:, None], r_t, r)
        gain = np.where(better, cost - cost_t, 0.0)
        cost = np.where(better, cost_t, cost)
        lam = np.where(better, np.maximum(lam / 3.0, 1e-10),
                       np.where(finite, lam * 5.0, lam))
        done = better & (still | (gain <= 1e-10 * np.maximum(cost, 1e-12)))
        stuck = finite & ~better & (lam > 1e8)
        keep = finite & ~(done | stuck)
        if not np.all(keep):
            theta_out[idx] = theta
            r_out[idx] = r
            cost_out[idx] = cost
            idx = idx[keep]
            theta, r, cost, lam = theta[keep], r[keep], cost[keep], lam[keep]
            pp, qq, ss = pp[keep], qq[keep], ss[keep]
            gpp, wgg = gpp[keep], wgg[keep]
            nprr, wnn = nprr[keep], wnn[keep]
    if idx.size:
        theta_out[idx] = theta
        r_out[idx] = r
        cost_out[idx] = cost
    return theta_out, r_out, cost_out
