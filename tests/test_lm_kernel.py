"""The LM kernel's row-major normal equations equal the batch-first sums.

``_lm_kernel`` builds its Jacobian rows-first, ``(N+2, 4, B)``, and sums
JᵀJ and Jᵀr over the leading (row) axis. These properties pin that reduction
order: the results must be bit-identical — signed zeros included — to the
batch-first ``(B, N+2, 4)`` sums ``np.sum(..., axis=1)``, and a whole
kernel run must equal the short one-seed-at-a-time reference loop below,
which uses those batch-first sums.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.estimator import (
    _GN_HI,
    _GN_LO,
    EllipticalEstimator,
    _lm_jacobian,
    _lm_kernel,
    _lm_normal_equations,
    _lm_residuals,
    _lockstep,
    _Job,
    _uses_q,
)


def _assert_bitwise(a, b):
    """Equal values, NaN where NaN, and the same sign on every non-NaN."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    num = ~np.isnan(a)
    assert np.array_equal(np.signbit(a[num]), np.signbit(b[num]))


def _batch_first_sums(j, r):
    """JᵀJ ``(B, 4, 4)`` and Jᵀr ``(B, 4)`` from a batch-first Jacobian."""
    jb = np.ascontiguousarray(j.transpose(2, 0, 1))
    jtj = np.sum(jb[:, :, :, None] * jb[:, :, None, :], axis=1)
    grad = np.sum(jb * r[:, :, None], axis=1)
    return jtj, grad


def _system(seed, n_batch, n_rows, clamp, prior, nonfinite):
    """Kernel inputs: ``theta`` ``(B, 4)``, ``p``/``q``/``rss`` ``(B, N)``
    and per-seed priors, with optional clamped and non-finite entries."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(_GN_LO, _GN_HI, (n_batch, 4))
    p = rng.uniform(-10.0, 10.0, (n_batch, n_rows))
    q = rng.uniform(-10.0, 10.0, (n_batch, n_rows))
    rss = rng.uniform(-100.0, -40.0, (n_batch, n_rows))
    if clamp != "none":
        # Rows within the 0.1 m distance clamp (exactly on the beacon, or
        # a few cm off it on either side); "seed" clamps every row of one
        # seed so its (x, h) Jacobian entries are all signed zeros.
        hit = rng.random((n_batch, n_rows)) < 0.3
        if clamp == "seed":
            hit[rng.integers(n_batch)] = True
        off = rng.choice([0.0, 0.03, -0.05, 0.07], size=(2, n_batch, n_rows))
        p = np.where(hit, off[0] - theta[:, :1], p)
        q = np.where(hit, off[1] - theta[:, 1:2], q)
    gp = rng.uniform(-70.0, -50.0, n_batch)
    npr = rng.uniform(1.5, 3.5, n_batch)
    on = {"none": np.zeros((2, n_batch), bool),
          "both": np.ones((2, n_batch), bool),
          "mixed": rng.random((2, n_batch)) < 0.5}[prior]
    wg = np.where(on[0], rng.uniform(0.5, 5.0, n_batch), 0.0)
    wn = np.where(on[1], rng.uniform(0.5, 5.0, n_batch), 0.0)
    gp, npr = np.where(on[0], gp, 0.0), np.where(on[1], npr, 0.0)
    if nonfinite:
        bad = (np.nan, np.inf, -np.inf)
        for arr in (p, q, rss):
            k = rng.integers(arr.size)
            arr.flat[k] = bad[k % 3]
        theta[rng.integers(n_batch), rng.integers(4)] = np.nan
    return theta, p, q, rss, gp, wg, npr, wn


class TestNormalEquationsOrder:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_batch=st.integers(1, 70),
           n_rows=st.integers(2, 200),
           clamp=st.sampled_from(["none", "rows", "seed"]),
           prior=st.sampled_from(["none", "both", "mixed"]),
           nonfinite=st.booleans())
    @example(seed=0, n_batch=1, n_rows=2, clamp="seed", prior="none",
             nonfinite=False)
    @example(seed=1, n_batch=70, n_rows=200, clamp="rows", prior="both",
             nonfinite=True)
    def test_row_major_sums_equal_batch_first_sums(
            self, seed, n_batch, n_rows, clamp, prior, nonfinite):
        theta, p, q, rss, gp, wg, npr, wn = _system(
            seed, n_batch, n_rows, clamp, prior, nonfinite)
        with np.errstate(all="ignore"):
            j = _lm_jacobian(theta, p, q, wg, wn)
            r = _lm_residuals(theta, p, q, rss, gp, wg, npr, wn)
            jtj, grad = _lm_normal_equations(j, r)
            ref_jtj, ref_grad = _batch_first_sums(j, r)
        assert j.shape == (n_rows + 2, 4, n_batch)
        assert r.shape == (n_batch, n_rows + 2) and r.flags.c_contiguous
        _assert_bitwise(np.moveaxis(jtj, -1, 0), ref_jtj)
        _assert_bitwise(grad.T, ref_grad)

    def test_seed_on_the_beacon_keeps_signed_zero_terms(self):
        """A seed on the beacon has ±0 in its (x, h) Jacobian entries;
        both orders must agree on every such entry's sign."""
        theta = np.array([[2.0, -1.0, -60.0, 2.0]])
        p = np.array([[-2.03, -2.0, -1.95]])
        q = np.array([[1.0, 1.05, 0.98]])
        rss = np.full((1, 3), -90.0)
        zeros = np.zeros(1)
        j = _lm_jacobian(theta, p, q, zeros, zeros)
        assert np.all(j[:, :2] == 0.0) and np.any(np.signbit(j[:, :2]))
        r = _lm_residuals(theta, p, q, rss, zeros, zeros, zeros, zeros)
        jtj, grad = _lm_normal_equations(j, r)
        ref_jtj, ref_grad = _batch_first_sums(j, r)
        _assert_bitwise(np.moveaxis(jtj, -1, 0), ref_jtj)
        _assert_bitwise(grad.T, ref_grad)


def _reference_kernel(theta0, p, q, rss, gp, wg, npr, wn, max_iter=60):
    """One seed at a time, batch-first sums: ``(theta, r, cost, iters)``.

    Models the projected step independently of the kernel's masks: a
    parameter on its bound whose gradient points out of the box is held.
    """
    theta_out = theta0.copy()
    r_out, cost_out, iters = [], [], []
    eye = np.eye(4)
    for b in range(len(theta0)):
        one = slice(b, b + 1)
        data = (p[one], q[one], rss[one])
        priors = (gp[one], wg[one], npr[one], wn[one])
        theta = theta0[one]
        r = _lm_residuals(theta, *data, *priors)
        cost = np.sum(r * r, axis=1)
        lam, k = 1e-3, 0
        while np.isfinite(cost[0]) and k < max_iter:
            k += 1
            j = _lm_jacobian(theta, data[0], data[1], priors[1], priors[3])
            jtj, grad = _batch_first_sums(j, r)
            if not (np.isfinite(jtj).all() and np.isfinite(grad).all()):
                break
            # Projected step: a parameter on its bound with an outward
            # descent direction is held, the others solve the reduced system.
            free = ~(((theta[0] <= _GN_LO) & (grad[0] > 0.0))
                     | ((theta[0] >= _GN_HI) & (grad[0] < 0.0)))
            both = free[:, None] & free[None, :]
            lhs = np.where(both, jtj[0] + lam * eye, eye)
            rhs = np.where(free, grad[0], 0.0)
            step = np.linalg.solve(lhs[None], rhs[None, :, None])[:, :, 0]
            trial = np.clip(theta - step, _GN_LO, _GN_HI)
            r_t = _lm_residuals(trial, *data, *priors)
            cost_t = np.sum(r_t * r_t, axis=1)
            if np.isfinite(cost_t[0]) and cost_t[0] < cost[0]:
                gain = cost[0] - cost_t[0]
                theta, r, cost = trial, r_t, cost_t
                lam = max(lam / 3.0, 1e-10)
                if gain <= 1e-10 * max(cost[0], 1e-12):
                    break
            else:
                lam *= 5.0
                if lam > 1e8:
                    break
        theta_out[b] = theta[0]
        r_out.append(r[0])
        cost_out.append(cost[0])
        iters.append(k)
    return theta_out, np.array(r_out), np.array(cost_out), iters


def _walk_system(seed, n_batch, n_rows, prior, nonfinite):
    """A solvable batch: seeds around an L-walk's beacon, noisy RSS."""
    rng = np.random.default_rng(seed)
    d = np.linspace(0.0, 4.5, n_rows)
    p0, q0 = -np.minimum(d, 2.5), -np.clip(d - 2.5, 0.0, 2.0)
    beacon = rng.uniform(-6.0, 6.0, (n_batch, 2))
    dist = np.hypot(beacon[:, :1] + p0, beacon[:, 1:] + q0)
    rss = (-59.0 - 22.0 * np.log10(np.maximum(dist, 0.1))
           + rng.normal(0.0, 2.0, (n_batch, n_rows)))
    p = np.repeat(p0[None, :], n_batch, axis=0)
    q = np.repeat(q0[None, :], n_batch, axis=0)
    theta0 = np.column_stack([
        beacon + rng.normal(0.0, 2.0, (n_batch, 2)),
        rng.uniform(-75.0, -45.0, n_batch),
        rng.uniform(1.2, 4.5, n_batch),
    ])
    on = rng.random((2, n_batch)) < (0.0 if prior == "none" else 0.5
                                      if prior == "mixed" else 1.0)
    root_n = np.sqrt(n_rows)
    gp = np.where(on[0], -59.0, 0.0)
    wg = np.where(on[0], root_n / 6.0, 0.0)
    npr = np.where(on[1], 2.2, 0.0)
    wn = np.where(on[1], root_n / 0.6, 0.0)
    if nonfinite:
        rss[rng.integers(n_batch), rng.integers(n_rows)] = np.nan
    return theta0, p, q, rss, gp, wg, npr, wn


class TestKernelEqualsReferenceLoop:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_batch=st.integers(1, 12),
           n_rows=st.integers(8, 160),
           prior=st.sampled_from(["none", "both", "mixed"]),
           nonfinite=st.booleans(),
           max_iter=st.sampled_from([3, 60]))
    def test_kernel_equals_one_seed_reference(
            self, seed, n_batch, n_rows, prior, nonfinite, max_iter):
        args = _walk_system(seed, n_batch, n_rows, prior, nonfinite)
        before = (perf.counter_value("estimator.lm_iterations"),
                  perf.counter_value("estimator.lm_max_iter_calls"))
        theta, r, cost = _lm_kernel(*args, max_iter=max_iter)
        grew = (perf.counter_value("estimator.lm_iterations") - before[0],
                perf.counter_value("estimator.lm_max_iter_calls") - before[1])
        ref_theta, ref_r, ref_cost, iters = _reference_kernel(
            *args, max_iter=max_iter)
        _assert_bitwise(theta, ref_theta)
        _assert_bitwise(r, ref_r)
        _assert_bitwise(cost, ref_cost)
        # The batch runs until its slowest row freezes.
        assert grew == (max(iters), int(max(iters) == max_iter))


def test_lockstep_covariance_jacobians_are_batch_first_and_contiguous():
    """Winners' Jacobians feed a BLAS ``jac.T @ jac``: each must be the
    C-contiguous ``(N+2, 4)`` slice of the rows-first Jacobian."""
    est = EllipticalEstimator().with_environment("LOS")
    _theta0, p, q, rss, *_ = _walk_system(5, 2, 40, "none", False)
    jobs = [_Job(est, p[b], q[b], rss[b], _uses_q(q[b]), None)
            for b in range(2)]
    seeds = [est._initial_candidates(job.p, job.q, job.rss, job.use_q)
             for job in jobs]
    for job, best in zip(jobs, _lockstep(jobs, seeds)):
        theta, _r, jac = best
        assert jac.shape == (len(job.p) + 2, 4) and jac.flags.c_contiguous
        root_n = np.sqrt(len(job.p))
        alone = _lm_jacobian(theta[None, :], job.p[None, :], job.q[None, :],
                             np.array([root_n / est.gamma_prior_sigma]),
                             np.array([root_n / est.n_prior_sigma]))
        _assert_bitwise(jac, alone[:, :, 0])


class TestBoundPinnedParameter:
    """A parameter on its bound whose gradient points out of the box is
    held, and the others solve the reduced system instead of crawling
    along the bound for every remaining iteration."""

    def _pinned(self):
        """One seed at the true position and Γ, with n on its lower bound
        under RSS that falls off flatter (n = 0.7) than the box admits."""
        d = np.linspace(0.0, 4.5, 40)
        p = -np.minimum(d, 2.5)[None, :]
        q = -np.clip(d - 2.5, 0.0, 2.0)[None, :]
        rss = -59.0 - 7.0 * np.log10(np.hypot(4.0 + p, 3.0 + q))
        theta0 = np.array([[4.0, 3.0, -59.0, _GN_LO[3]]])
        zeros = np.zeros(1)
        return theta0, p, q, rss, zeros, zeros, zeros, zeros

    def test_outward_gradient_gets_exactly_zero_step(self):
        theta0, p, q, rss, gp, wg, npr, wn = args = self._pinned()
        jtj, grad = _lm_normal_equations(
            _lm_jacobian(theta0, p, q, wg, wn),
            _lm_residuals(theta0, p, q, rss, gp, wg, npr, wn))
        assert grad[3, 0] > 0.0  # descent would push n below 1.0
        theta, _r, _cost = _lm_kernel(*args, max_iter=1)
        assert theta[0, 3] == _GN_LO[3]
        reduced = np.linalg.solve(jtj[:3, :3, 0] + 1e-3 * np.eye(3),
                                  grad[:3, 0])
        np.testing.assert_allclose(theta[0, :3], theta0[0, :3] - reduced,
                                   rtol=1e-12)

    def test_freezes_before_max_iter(self):
        args = self._pinned()
        before = (perf.counter_value("estimator.lm_iterations"),
                  perf.counter_value("estimator.lm_max_iter_calls"))
        theta, _r, cost = _lm_kernel(*args, max_iter=60)
        iters = perf.counter_value("estimator.lm_iterations") - before[0]
        assert iters < 60
        assert perf.counter_value("estimator.lm_max_iter_calls") == before[1]
        assert theta[0, 3] == _GN_LO[3]
        assert cost[0] < 1e-2
