"""The separable LM kernel: its per-row sums, its inner solve, its merge
and tie rules, and its judges.

``_vp_kernel`` iterates only ``(x, h)``; at each trial position
``_inner_solve`` gives the box-constrained ``(Γ, n)`` in closed form
(variable projection) and ``_vp_eval`` the cost, Kaufman's projected
Hessian and the gradient. Every row sum is an ``np.add.reduceat`` over the
row's own samples, so a row gets the same bits alone (B = 1) and in any
batch, whatever the other windows' lengths. The judges:

- a one-seed-at-a-time reference that refines each row alone, in plain
  floats, and replays the merge rule over the recorded paths must agree
  with the kernel bit for bit, iteration counters included. A row with no
  sibling seed takes two more step rules there (a reversing step is
  shortened, a rejected step sets λ from a parabola); a row with siblings
  takes the steps it took before those rules;
- the inner solve must match a bounded least-squares solver, box edges
  included, and the Hessian an explicit projection of the four-parameter
  Jacobian;
- the separable optimum must be the optimum of the four-parameter kernel
  it replaced (``tests/lm_kernel_recompute.py``) started from the same
  ``(x, h)``.

``_lockstep`` gives a seed whose ``(x, h)`` repeats an earlier one of its
job no kernel row, and picks a job's first seed among near-equal costs.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from repro import perf
from repro.core.estimator import (
    _COST,
    _GAMMA,
    _GN_BOX,
    _GRAD,
    _H,
    _HESS,
    _MERGE_TOL,
    _N,
    _STEP_TOL,
    _X,
    _XY_MAX,
    DEFAULT_N_GRID,
    N_PRIOR_SIGMA,
    EllipticalEstimator,
    FitRequest,
    WarmStartState,
    _Job,
    _kernel_inputs,
    _lm_jacobian,
    _lm_terms,
    _lockstep,
    _uses_q,
    _vp_eval,
    _vp_kernel,
    fit_batch,
)
from tests import lm_kernel_recompute as four_param
from tests.stubs import recording


def _assert_bitwise(a, b):
    """Equal values, NaN where NaN, and the same sign on every non-NaN."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    num = ~np.isnan(a)
    assert np.array_equal(np.signbit(a[num]), np.signbit(b[num]))


def _jacobian(theta, p, q, wg, wn):
    """The module's four-parameter Jacobian of ``theta``."""
    return _lm_jacobian(theta, _lm_terms(theta, p, q), wg, wn)


def _walk(n_rows):
    """Observer displacements ``(p, q)`` along an L-walk."""
    d = np.linspace(0.0, 4.5, n_rows)
    return -np.minimum(d, 2.5), -np.clip(d - 2.5, 0.0, 2.0)


#: Estimators by prior: none, the default Γ prior, and both priors.
_PRIORS = {"none": EllipticalEstimator(gamma_prior=None),
           "gamma": EllipticalEstimator(),
           "both": EllipticalEstimator().with_environment("NLOS")}


def _jobs(seed, n_jobs, n_rows, prior, nonfinite=False, ragged=False):
    """L-walk jobs, each with its own beacon, noisy RSS and window length
    (all ``n_rows`` unless ``ragged``): ``(jobs, beacons)``. ``prior``
    names a :data:`_PRIORS` entry or ``"mixed"``, a random one per job;
    ``nonfinite`` puts a NaN into the first job's RSS."""
    rng = np.random.default_rng(seed)
    jobs, beacons = [], []
    for i in range(n_jobs):
        n = int(rng.integers(8, n_rows + 1)) if ragged else n_rows
        p, q = _walk(n)
        beacon = rng.uniform(-6.0, 6.0, 2)
        rss = (-59.0 - 22.0 * np.log10(np.maximum(
            np.hypot(beacon[0] + p, beacon[1] + q), 0.1))
            + rng.normal(0.0, 2.0, n))
        if nonfinite and i == 0:
            rss[rng.integers(n)] = np.nan
        name = prior if prior != "mixed" else str(
            rng.choice(sorted(_PRIORS)))
        jobs.append(_Job(_PRIORS[name], p, q, rss, _uses_q(q), None))
        beacons.append(beacon)
    return jobs, beacons


def _seed_sets(seed, beacons, seeds, dup=False, far=False):
    """1 to ``seeds`` ``(x, h)`` seeds per job, within 2 m of its beacon
    (anywhere in the box when ``far``); ``dup`` repeats earlier seeds of
    a job bit for bit."""
    rng = np.random.default_rng([seed, 1])
    sets = []
    for beacon in beacons:
        count = int(rng.integers(1, seeds + 1))
        xy = beacon + rng.normal(0.0, 2.0, (count, 2))
        if far:
            xy = rng.uniform(-_XY_MAX, _XY_MAX, (count, 2))
        rows = [tuple(row) for row in xy]
        if dup:
            rows = [rows[rng.integers(k + 1)] if rng.random() < 0.4 else row
                    for k, row in enumerate(rows)]
        sets.append(rows)
    return sets


def _row_alone(inputs, b):
    """Row ``b`` of :func:`_kernel_inputs`' output as a batch of one."""
    xy0, w, c, lengths, _job = inputs
    start = int(np.sum(lengths[:b]))
    cols = slice(start, start + int(lengths[b]))
    return xy0[:, b:b + 1], w[:, cols].copy(), c[:, b:b + 1], lengths[b:b + 1]


def _evaluate(xy, w, c, lengths):
    """:func:`_vp_eval` of one row at ``xy``, as a ``(11,)`` state."""
    with np.errstate(all="ignore"):
        return _vp_eval(np.array(xy, dtype=float).reshape(2, 1), w, c,
                        lengths, np.zeros(1, np.intp))[:, 0]


def _reference_path(xy0, w, c, lengths, max_iter, solo=True):
    """One seed refined alone, its step rules in plain floats: its states
    after 0, 1, ... iterations, whether each step was accepted, and the
    iteration at which it stops by itself (converged, stuck, non-finite
    or ``max_iter``).

    Models the bound hold independently of the kernel's masks: a
    coordinate on its bound whose gradient points out of the box is held.
    A ``solo`` row (its job's only row) takes two more rules, both read
    off the parabola through the cost, its slope along the step tried
    (``xy − trial``, ``g·s`` its dot with the gradient) and the trial's
    cost. Rule 1, armed once a step gains less than half of ``g·s``: a
    step ``s`` that reverses the last accepted step ``m`` since,
    ``ρ = s·m/m·m < 0``, is divided by ``min(1 − ρ, 10)``; the step stop
    judges ``s`` before that. Rule 2: a rejected step with ``g·s > 0``
    sets ``λ`` to at least ``(h + λ)/α − h``, ``α`` the parabola's least
    clipped to [0.1, 0.5]. With ``solo=False`` these are the steps every
    row took before the two rules.
    """
    s = _evaluate(xy0[:, 0], w, c, lengths)
    states, accepted = [s], [False]
    if not np.isfinite(s[_COST]):
        return states, accepted, 0
    lam, k, last, armed = 1e-3, 0, (0.0, 0.0), False
    while k < max_iter:
        k += 1
        if not np.all(np.isfinite(s[_HESS:])):
            states.append(s)
            accepted.append(False)
            break
        xy = [float(s[_X]), float(s[_H])]
        g = [float(s[_GRAD]), float(s[_GRAD + 1])]
        free = [not ((xy[i] <= -_XY_MAX and g[i] > 0.0)
                     or (xy[i] >= _XY_MAX and g[i] < 0.0)) for i in (0, 1)]
        a = float(s[_HESS]) + lam if free[0] else 1.0
        d = float(s[_HESS + 3]) + lam if free[1] else 1.0
        b = float(s[_HESS + 1]) if free[0] and free[1] else 0.0
        g = [gi if fi else 0.0 for gi, fi in zip(g, free)]
        den = a * d - b * b
        step = [(d * g[0] - b * g[1]) / den, (a * g[1] - b * g[0]) / den]
        tried = step
        mm = last[0] * last[0] + last[1] * last[1]
        if solo and mm > 0.0:
            rho = (step[0] * last[0] + step[1] * last[1]) / mm
            if rho < 0.0:
                tried = [si / min(1.0 - rho, 10.0) for si in step]
        trial = [min(max(xy[i] - tried[i], -_XY_MAX), _XY_MAX)
                 for i in (0, 1)]
        t = _evaluate(trial, w, c, lengths)
        gain = float(s[_COST]) - float(t[_COST])
        gs = g[0] * (xy[0] - trial[0]) + g[1] * (xy[1] - trial[1])
        armed = armed or (solo and gain < 0.5 * gs)
        if float(t[_COST]) < float(s[_COST]):
            judged = step if solo else [xy[i] - trial[i] for i in (0, 1)]
            still = all(abs(judged[i]) <= _STEP_TOL for i in (0, 1))
            s, lam = t, max(lam / 3.0, 1e-10)
            if armed:
                last = (step[0], step[1])
            states.append(s)
            accepted.append(True)
            if still or gain <= 1e-10 * max(float(s[_COST]), 1e-12):
                break
        else:
            states.append(s)
            accepted.append(False)
            grown = lam * 5.0
            if solo and gs > 0.0:
                alpha = gs / (2.0 * gs - gain)
                if not np.isnan(alpha):
                    alpha = min(max(alpha, 0.1), 0.5)
                h = 0.5 * (float(s[_HESS]) + float(s[_HESS + 3]))
                parabola = (h + lam) / alpha - h
                if parabola > grown:
                    grown = parabola
            lam = grown
            if lam > 1e8:
                break
    return states, accepted, k


def _reference_kernel(inputs, max_iter=60, rules=True):
    """Each row refined alone (:func:`_reference_path`, a row solo when
    its job has no other row and ``rules``), then the merge rule replayed
    over the recorded paths: ``(states, stops, evals, merged)``.

    After iteration k (k < ``max_iter``), a row that is still moving
    stops if its ``(x, h)`` lies within ``_MERGE_TOL`` of another row of
    its job with a lower cost, or an equal cost and a lower index; a row
    that stopped earlier is compared at the state it stopped in.
    ``evals`` counts the row evaluations the kernel must make: each
    finite row's first, and one per iteration it takes part in.
    """
    job = inputs[4]
    n_rows = len(job)
    paths, stops = [], []
    for b in range(n_rows):
        solo = rules and np.count_nonzero(job == job[b]) == 1
        states, _accepted, stop = _reference_path(*_row_alone(inputs, b),
                                                  max_iter, solo)
        paths.append(states)
        stops.append(stop)
    merged = [False] * n_rows
    for k in range(1, max_iter):
        now = [paths[b][min(k, stops[b])] for b in range(n_rows)]
        for a in range(n_rows):
            if stops[a] <= k:
                continue
            for b in range(n_rows):
                if b == a or job[b] != job[a]:
                    continue
                if ((now[b][_COST] < now[a][_COST]
                     or (now[b][_COST] == now[a][_COST] and b < a))
                        and np.all(np.abs(now[a][:_GAMMA] - now[b][:_GAMMA])
                                   <= _MERGE_TOL)):
                    stops[a], merged[a] = k, True
                    break
    states = np.stack([path[stop] for path, stop in zip(paths, stops)],
                      axis=1)
    evals = sum(1 + stop for path, stop in zip(paths, stops)
                if np.isfinite(path[0][_COST]))
    return states, stops, evals, sum(merged)


#: The kernel's perf counters, in :func:`_reference_kernel`'s terms.
_KERNEL_COUNTERS = ("estimator.lm_iterations", "estimator.lm_max_iter_calls",
                    "estimator.lm_normal_rows", "estimator.lm_rows_merged",
                    "estimator.lm_kernel_calls")


def _run_kernel(inputs, max_iter=60):
    """The kernel's final states and how much each counter grew."""
    before = [perf.counter_value(n) for n in _KERNEL_COUNTERS]
    out = _vp_kernel(*inputs, max_iter=max_iter)
    return out, tuple(perf.counter_value(n) - b
                      for n, b in zip(_KERNEL_COUNTERS, before))


_JOB_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_jobs=st.integers(1, 8),
    n_rows=st.integers(8, 160),
    prior=st.sampled_from(["none", "gamma", "both", "mixed"]),
    nonfinite=st.booleans(),
    seeds=st.integers(1, 6),
    dup=st.booleans(),
    far=st.booleans(),
    ragged=st.booleans(),
    max_iter=st.sampled_from([3, 60]),
)


def _job_examples(test):
    """A warm tick (one seed a job), a cold one (up to 6), ragged and
    reject-heavy batches, and one job alone."""
    for seed, n_jobs, n_rows, seeds, dup, far, ragged in (
            (2, 8, 160, 1, False, False, False),
            (3, 4, 160, 6, True, False, True),
            (4, 8, 100, 5, False, True, True),
            (5, 1, 160, 6, True, False, False)):
        test = example(seed=seed, n_jobs=n_jobs, n_rows=n_rows,
                       prior="mixed", nonfinite=False, seeds=seeds, dup=dup,
                       far=far, ragged=ragged, max_iter=60)(test)
    return test


class TestNormalEquationsOrder:
    """A row's sums — the inner solve's and the 2×2 system's — are the
    bits it gets alone, whatever else shares the work array."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_jobs=st.integers(1, 12),
           n_rows=st.integers(8, 200),
           prior=st.sampled_from(["none", "gamma", "both", "mixed"]),
           nonfinite=st.booleans(), far=st.booleans())
    @example(seed=0, n_jobs=1, n_rows=8, prior="none", nonfinite=False,
             far=False)
    @example(seed=1, n_jobs=12, n_rows=200, prior="mixed", nonfinite=True,
             far=True)
    def test_row_major_sums_equal_batch_first_sums(
            self, seed, n_jobs, n_rows, prior, nonfinite, far):
        jobs, beacons = _jobs(seed, n_jobs, n_rows, prior, nonfinite,
                              ragged=True)
        inputs = _kernel_inputs(jobs, _seed_sets(seed, beacons, 3, far=far))
        xy0, w, c, lengths, _job = inputs
        with np.errstate(all="ignore"):
            batch = _vp_eval(xy0, w, c, lengths,
                             np.concatenate([[0], np.cumsum(lengths)[:-1]]))
        assert batch.shape == (11, len(lengths))
        for b in range(len(lengths)):
            alone = _row_alone(inputs, b)
            _assert_bitwise(batch[:, b], _evaluate(alone[0][:, 0], *alone[1:]))

    def test_seed_on_the_beacon_keeps_signed_zero_terms(self):
        """Inside the 0.1 m clamp the distance does not respond to
        (x, h): a seed with every sample within 10 cm has an all-zero
        gradient and Hessian, alone and batched."""
        est = EllipticalEstimator()
        p = np.array([-2.03, -2.0, -1.95, -2.01, -1.97, -2.0, -2.05, -1.99])
        q = np.array([1.0, 1.05, 0.98, 0.96, 1.02, 1.0, 0.99, 1.01])
        near = _Job(est, p, q, np.full(8, -60.0), True, None)
        jobs, beacons = _jobs(3, 2, 40, "gamma")
        inputs = _kernel_inputs([near] + jobs,
                                [[(2.0, -1.0)]] + [[tuple(b)] for b in beacons])
        alone = _evaluate((2.0, -1.0), *_row_alone(inputs, 0)[1:])
        assert np.all(alone[_HESS:] == 0.0)
        xy0, w, c, lengths, _job = inputs
        batch = _vp_eval(xy0, w, c, lengths,
                         np.concatenate([[0], np.cumsum(lengths)[:-1]]))
        _assert_bitwise(batch[:, 0], alone)


def _bounded_lstsq(job, xy):
    """``(Γ, n)`` and the cost from a bounded least-squares solver over
    the job's data and prior rows at the fixed position ``xy``."""
    theta = np.array([[xy[0], xy[1], 0.0, 0.0]])
    log_d = 0.5 * _lm_terms(theta, job.p[None], job.q[None])[3][0]
    est, root_n = job.est, np.sqrt(len(job.p))
    rows = [np.column_stack([np.ones_like(log_d), -10.0 * log_d])]
    rhs = [job.rss]
    if est.gamma_prior is not None:
        wg = root_n / est.gamma_prior_sigma
        rows.append([[wg, 0.0]])
        rhs.append([wg * est.gamma_prior])
    if est.n_prior is not None:
        wn = root_n / N_PRIOR_SIGMA
        rows.append([[0.0, wn]])
        rhs.append([wn * est.n_prior])
    a, b = np.vstack(rows), np.concatenate(rhs)
    sol = lsq_linear(a, b, bounds=tuple(_GN_BOX.T), method="bvls",
                     tol=1e-14)
    return sol.x, float(np.sum((a @ sol.x - b) ** 2))


class TestInnerSolve:
    """At a fixed position the kernel's ``(Γ, n)`` and cost are the bounded
    least-squares solution's, box edges included, and its Hessian is the
    four-parameter Jacobian's (x, h) block projected off the free columns
    of ``(Γ, n)``."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(8, 120),
           true_n=st.floats(0.2, 8.0), true_gamma=st.floats(-120.0, -5.0),
           prior=st.sampled_from(["none", "gamma", "both"]))
    @example(seed=0, n_rows=40, true_n=7.0, true_gamma=-59.0, prior="none")
    @example(seed=1, n_rows=40, true_n=0.3, true_gamma=-59.0, prior="none")
    @example(seed=2, n_rows=40, true_n=2.0, true_gamma=-15.0, prior="none")
    @example(seed=3, n_rows=40, true_n=6.0, true_gamma=-110.0, prior="none")
    @example(seed=4, n_rows=40, true_n=2.0, true_gamma=-59.0, prior="both")
    def test_matches_bounded_least_squares(self, seed, n_rows, true_n,
                                           true_gamma, prior):
        rng = np.random.default_rng(seed)
        p, q = _walk(n_rows)
        xy = rng.uniform(-6.0, 6.0, 2)
        dist = np.maximum(np.hypot(xy[0] + p, xy[1] + q), 0.1)
        rss = (true_gamma - 10.0 * true_n * np.log10(dist)
               + rng.normal(0.0, 1.0, n_rows))
        job = _Job(_PRIORS[prior], p, q, rss, True, None)
        inputs = _kernel_inputs([job], [[tuple(xy)]])
        state = _evaluate(xy, *_row_alone(inputs, 0)[1:])
        (gamma, n), cost = _bounded_lstsq(job, xy)
        np.testing.assert_allclose(state[[_GAMMA, _N]], [gamma, n],
                                   rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(state[_COST], cost, rtol=1e-7, atol=1e-7)
        assert np.all((_GN_BOX[:, 0] <= state[[_GAMMA, _N]])
                      & (state[[_GAMMA, _N]] <= _GN_BOX[:, 1]))

        # Kaufman's Hessian: Jxyᵀ (I − Φ(ΦᵀΦ)⁻¹Φᵀ) Jxy over the free
        # columns Φ of the Jacobian's (Γ, n) block, a column on its bound
        # held.
        root_n = np.sqrt(n_rows)
        est = job.est
        wg = 0.0 if est.gamma_prior is None else root_n / est.gamma_prior_sigma
        wn = 0.0 if est.n_prior is None else root_n / N_PRIOR_SIGMA
        jac = _jacobian(state[None, :4], p[None], q[None], np.array([wg]),
                        np.array([wn]))[:, :, 0]
        free = ((_GN_BOX[:, 0] < state[[_GAMMA, _N]])
                & (state[[_GAMMA, _N]] < _GN_BOX[:, 1]))
        phi = jac[:, 2:][:, free]
        j_xy = jac[:, :2] - phi @ np.linalg.lstsq(phi, jac[:, :2],
                                                  rcond=None)[0]
        hess = state[_HESS:_GRAD].reshape(2, 2)
        np.testing.assert_allclose(hess, j_xy.T @ j_xy, rtol=1e-6,
                                   atol=1e-6 * np.abs(hess).max())

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), true_n=st.floats(0.2, 8.0))
    @example(seed=0, true_n=7.0)
    def test_gradient_is_half_the_projected_cost_slope(self, seed, true_n):
        """The cost is ``Σr²``: its slope along x and h, with ``(Γ, n)``
        re-solved at every position, is twice the kernel's ``Jᵀr``."""
        rng = np.random.default_rng(seed)
        p, q = _walk(60)
        xy = rng.uniform(-6.0, 6.0, 2)
        rss = (-59.0 - 10.0 * true_n * np.log10(np.maximum(
            np.hypot(xy[0] + p, xy[1] + q), 0.1)) + rng.normal(0.0, 2.0, 60))
        job = _Job(_PRIORS["gamma"], p, q, rss, True, None)
        inputs = _row_alone(_kernel_inputs([job], [[tuple(xy)]]), 0)
        at = xy + rng.normal(0.0, 1.0, 2)
        grad = _evaluate(at, *inputs[1:])[_GRAD:]
        for i, eps in enumerate(np.eye(2) * 1e-6):
            slope = (_evaluate(at + eps, *inputs[1:])[_COST]
                     - _evaluate(at - eps, *inputs[1:])[_COST]) / 2e-6
            np.testing.assert_allclose(slope, 2.0 * grad[i], rtol=1e-4,
                                       atol=1e-5)


class TestKernelEqualsReferenceLoop:
    @settings(max_examples=40, deadline=None)
    @given(**_JOB_CASES)
    @_job_examples
    def test_kernel_equals_one_seed_reference(
            self, seed, n_jobs, n_rows, prior, nonfinite, seeds, dup, far,
            ragged, max_iter):
        jobs, beacons = _jobs(seed, n_jobs, n_rows, prior, nonfinite, ragged)
        inputs = _kernel_inputs(jobs, _seed_sets(seed, beacons, seeds, dup,
                                                 far))
        out, grew = _run_kernel(inputs, max_iter)
        states, stops, evals, merged = _reference_kernel(inputs, max_iter)
        _assert_bitwise(out, states)
        # The batch runs until its slowest row freezes.
        assert grew == (max(stops), int(max(stops) == max_iter), evals,
                        merged, 1)

    def test_optimum_matches_the_four_parameter_kernel(self):
        """Started from the same position — and the (Γ, n) that solve the
        inner problem there — the four-parameter kernel the separable one
        replaced reaches the same optimum, to its stopping tolerances, or
        stops short of it in the Γ–n valley. Twelve batches of six
        windows, 40 to 161 samples, under the default Γ prior, as served."""
        est = _PRIORS["gamma"]
        for seed in range(12):
            n_rows = 40 + 11 * seed
            jobs, beacons = _jobs(seed, 6, n_rows, "gamma")
            inputs = _kernel_inputs(jobs, [[tuple(b)] for b in beacons])
            start = _vp_eval(*inputs[:4], np.concatenate(
                [[0], np.cumsum(inputs[3])[:-1]]))
            out = _vp_kernel(*inputs)
            k = len(jobs)
            p, q, rss = (np.array([getattr(j, a) for j in jobs])
                         for a in ("p", "q", "rss"))
            theta, _r, cost = four_param._lm_kernel(
                np.ascontiguousarray(start[:_COST].T), p, q, rss,
                np.full(k, est.gamma_prior),
                np.full(k, np.sqrt(n_rows) / est.gamma_prior_sigma),
                np.zeros(k), np.zeros(k))
            assert np.all(out[_COST] <= cost * (1.0 + 1e-6))
            same = out[_COST] >= cost * (1.0 - 1e-7)
            assert np.count_nonzero(same) >= k // 2
            np.testing.assert_allclose(out[:_GAMMA, same].T,
                                       theta[same, :2], atol=0.01)

    def test_far_starts_are_reject_heavy(self):
        """Starts anywhere in the box exercise rejected steps: over a
        tenth of their row-iterations are rejected, so λ grows."""
        jobs, beacons = _jobs(4, 8, 100, "mixed")
        inputs = _kernel_inputs(jobs, _seed_sets(4, beacons, 5, far=True))
        rejected = total = 0
        job = inputs[4]
        for b in range(len(inputs[3])):
            _states, accepted, stop = _reference_path(
                *_row_alone(inputs, b), 60,
                np.count_nonzero(job == job[b]) == 1)
            rejected += stop - sum(accepted)
            total += stop
        assert rejected > 0.1 * total


def _fit_batch_bench_job(i):
    """Warm job ``i`` of the ``estimator_fit_batch`` bench's 32: an L-walk
    past a beacon at ``(1 + 0.1·i, 1.5 + 0.05·i)``, 40 samples, solved cold,
    then warm from that fix against the same window with 0.4 dB more noise
    (``benchmarks/bench_perf_hotpaths.py``)."""
    est, noise = EllipticalEstimator(), np.random.default_rng(37)
    for k in range(i + 1):
        rng = np.random.default_rng(100 + k)
        frac = np.linspace(0.0, 1.0, 40)
        leg1 = frac < 0.56
        ox = np.where(leg1, frac / 0.56 * 2.8, 2.8)
        oy = np.where(leg1, 0.0, (frac - 0.56) / 0.44 * 2.2)
        dist = np.hypot(ox - (1.0 + 0.1 * k), oy - (1.5 + 0.05 * k))
        rss = (-55.0 - 22.0 * np.log10(np.maximum(dist, 0.1))
               + rng.normal(0.0, 1.5, 40))
        warm = est.fit(-ox, -oy, rss).warm
        rss = rss + noise.normal(0.0, 0.4, 40)
    job = _Job(est, -ox, -oy, rss, _uses_q(-oy), warm)
    return _kernel_inputs([job], [[est._warm_seed(warm, job.use_q)]])


class TestSoloRules:
    """A row with no sibling seed — every warm fit — shortens a step that
    reverses its last one once it has overshot, and sets λ after a rejected
    step from the cost's parabola; a row with siblings — cold fits — takes
    the steps it took before those rules."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_jobs=st.integers(1, 6),
           n_rows=st.integers(8, 160),
           prior=st.sampled_from(["none", "gamma", "both", "mixed"]),
           far=st.booleans(), max_iter=st.sampled_from([3, 60]))
    @example(seed=4, n_jobs=6, n_rows=100, prior="mixed", far=True,
             max_iter=60)
    def test_rows_with_siblings_take_todays_steps(self, seed, n_jobs, n_rows,
                                                  prior, far, max_iter):
        jobs, beacons = _jobs(seed, n_jobs, n_rows, prior)
        rng = np.random.default_rng([seed, 2])
        sets = [[tuple(row) for row in (
            rng.uniform(-_XY_MAX, _XY_MAX, (rng.integers(2, 5), 2)) if far
            else b + rng.normal(0.0, 2.0, (rng.integers(2, 5), 2)))]
            for b in beacons]
        inputs = _kernel_inputs(jobs, sets)
        out, grew = _run_kernel(inputs, max_iter)
        states, stops, evals, merged = _reference_kernel(inputs, max_iter,
                                                         rules=False)
        _assert_bitwise(out, states)
        assert grew == (max(stops), int(max(stops) == max_iter), evals,
                        merged, 1)

    def test_zig_zag_warm_row_converges(self):
        """Row 18 of the fit-batch bench zig-zags across its valley: with
        a row's steps before the rules it runs all 60 iterations; solo, it
        converges in a handful, to the same basin."""
        inputs = _fit_batch_bench_job(18)
        before, _accepted, stop = _reference_path(*inputs[:4], 60,
                                                  solo=False)
        assert stop == 60
        out, grew = _run_kernel(inputs)
        assert grew[0] <= 10 and grew[1] == 0
        assert out[_COST, 0] <= before[-1][_COST]
        assert np.all(np.abs(out[:_GAMMA, 0] - before[-1][:_GAMMA])
                      <= 0.01)

    def test_clean_steps_are_left_alone(self):
        """A solo row whose steps gain as the model says — never half of
        ``g·s`` short, never rejected — takes the steps of a row with
        siblings, stops included."""
        jobs, beacons = _jobs(21, 1, 120, "both")
        inputs = _kernel_inputs(jobs, [[tuple(beacons[0])]])
        states, accepted, stop = _reference_path(*_row_alone(inputs, 0), 60,
                                                 solo=False)
        assert all(accepted[1:]) and stop > 2
        out, grew = _run_kernel(inputs)
        _assert_bitwise(out[:, 0], states[-1])
        assert grew[0] == stop


class TestMergeRule:
    """A live row within ``_MERGE_TOL`` of a lower-cost row of its job
    freezes; rows of other jobs never stop it."""

    def _one_job(self):
        jobs, beacons = _jobs(21, 1, 120, "both")
        return jobs[0], beacons[0]

    def test_rows_that_meet_freeze(self):
        """Five seeds around one beacon reach one optimum: rows freeze on
        meeting a better one, as the reference replay says, and the job's
        winner lands within the tolerance of the unmerged winner."""
        job, beacon = self._one_job()
        seeds = [tuple(beacon + off) for off in
                 ([0.0, 0.0], [0.4, -0.3], [-0.5, 0.2], [0.2, 0.6],
                  [-0.3, -0.4])]
        inputs = _kernel_inputs([job], [seeds])
        out, grew = _run_kernel(inputs)
        states, _stops, _evals, merged = _reference_kernel(inputs)
        _assert_bitwise(out, states)
        assert grew[3] == merged >= 2
        apart = _vp_kernel(*inputs[:4])
        win, apart_win = (int(np.argmin(s[_COST])) for s in (out, apart))
        assert np.all(np.abs(out[:_GAMMA, win] - apart[:_GAMMA, apart_win])
                      <= _MERGE_TOL)

    def test_equal_costs_freeze_the_later_row(self):
        """Two copies of one seed tie after the first iteration: the later
        freezes there, the earlier runs on as if alone. Copies in two jobs
        both run on."""
        job, beacon = self._one_job()
        xy0, w, c, lengths, _job = _kernel_inputs([job], [[tuple(beacon)]])
        two = (np.repeat(xy0, 2, axis=1), np.tile(w, 2), np.repeat(c, 2, 1),
               np.repeat(lengths, 2))
        out, grew = _run_kernel(two + (np.array([0, 0]),))
        assert grew[3] == 1
        alone = _vp_kernel(xy0, w, c, lengths)
        first = _vp_kernel(xy0, w, c, lengths, max_iter=1)
        _assert_bitwise(out[:, 0], alone[:, 0])
        _assert_bitwise(out[:, 1], first[:, 0])
        assert not np.array_equal(alone, first)
        out, grew = _run_kernel(two + (np.array([0, 1]),))
        assert grew[3] == 0
        for b in (0, 1):
            _assert_bitwise(out[:, b], alone[:, 0])


class TestShortWindowAloneAndPadded:
    """A short window refined alone — B = 1 — and beside a longer window
    in one run gives the same bits. A row sum over a padded window, or a
    pairwise sum whose blocks follow the batch, fails this."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 159))
    @example(seed=0, n=37)
    @example(seed=1, n=129)
    def test_kernel_row_alone_equals_padded(self, seed, n):
        jobs, beacons = _jobs(seed, 2, 160, "both")
        short = dataclasses.replace(jobs[0], p=jobs[0].p[:n],
                                    q=jobs[0].q[:n], rss=jobs[0].rss[:n])
        seeds = [[tuple(beacons[0])], [tuple(beacons[1])]]
        alone = _vp_kernel(*_kernel_inputs([short], seeds[:1]))
        both = _vp_kernel(*_kernel_inputs([short, jobs[1]], seeds))
        _assert_bitwise(both[:, :1], alone)

    def test_fits_alone_equal_fits_padded(self):
        """Through ``_lockstep`` and ``fit_batch``, cold and warm: one
        kernel run for the batch, and each fit what it is alone."""
        est = EllipticalEstimator().with_environment("LOS")
        (job0, job1), _b = _jobs(12, 2, 160, "none")
        short = _Job(est, job0.p[23:60], job0.q[23:60], job0.rss[23:60],
                     _uses_q(job0.q[23:60]), None)
        long = _Job(est, job1.p, job1.q, job1.rss, _uses_q(job1.q), None)
        seeds = [est._initial_candidates(job.p, job.q, job.rss, job.use_q)
                 for job in (short, long)]
        before = perf.counter_value("estimator.lm_kernel_calls")
        (alone,) = _lockstep([short], [seeds[0][:1]])
        padded, _long = _lockstep([short, long], [seeds[0][:1], seeds[1]])
        assert perf.counter_value("estimator.lm_kernel_calls") - before == 2
        for a, b in zip(alone, padded):
            _assert_bitwise(a, b)
        assert padded[2].shape == (len(short.p) + 2, 4)
        requests = [FitRequest(p=job.p, q=job.q, rss=job.rss)
                    for job in (short, long)]
        seq = [est.fit(r.p, r.q, r.rss) for r in requests]
        warm = [FitRequest(p=r.p, q=r.q, rss=r.rss, warm=s.warm)
                for r, s in zip(requests, seq)]
        seq += [est.fit(r.p, r.q, r.rss, warm=r.warm) for r in warm]
        before = perf.counter_value("estimator.lm_kernel_calls")
        bat = fit_batch(requests[::-1] + warm, default_estimator=est)
        # Warm and cold jobs share one kernel run.
        assert perf.counter_value("estimator.lm_kernel_calls") - before == 1
        for s, b in zip(seq, bat[1::-1] + bat[2:]):
            _assert_fit_bitwise(s, b)


class TestOneKernelRunPerBatch:
    """Warm jobs, first fixes and jobs whose warm state is unusable share
    one kernel run; only a rejected warm fit takes a second, cold run.
    Every fit is bit for bit the sequential ``fit``."""

    def _requests(self):
        """Four ragged windows: a usable warm state, none, an unusable
        one (a negative residual scale), and one whose warm fit blows up
        (8 dB of extra noise against a 0.5 dB warm RMSE)."""
        est = EllipticalEstimator().with_environment("LOS")
        jobs, _b = _jobs(31, 4, 120, "none")
        jobs[3].rss[:] += np.random.default_rng(31).normal(0.0, 8.0, 120)
        cut = (120, 90, 105, 120)
        p, q, rss = ([getattr(job, a)[:n] for job, n in zip(jobs, cut)]
                     for a in ("p", "q", "rss"))
        cold = [est.fit(*args) for args in zip(p, q, rss)]
        warm = [cold[0].warm, None,
                dataclasses.replace(cold[2].warm, rss_rmse=-1.0),
                dataclasses.replace(cold[3].warm, rss_rmse=0.5)]
        return est, [FitRequest(p=a, q=b, rss=c, warm=w)
                     for a, b, c, w in zip(p, q, rss, warm)]

    def _runs(self, est, requests):
        """The batch's fits, kernel runs and warm rejections."""
        names = ("estimator.lm_kernel_calls", "solver.warm_rejected")
        before = [perf.counter_value(n) for n in names]
        fits = fit_batch(requests, default_estimator=est)
        runs, rejected = (perf.counter_value(n) - b
                          for n, b in zip(names, before))
        return fits, runs, rejected

    def test_mixed_batch_equals_sequential_fits(self):
        est, requests = self._requests()
        seq = [est.fit(r.p, r.q, r.rss, warm=r.warm) for r in requests]
        assert [f.solver for f in seq] == ["warm-start"] + 3 * ["gauss-newton"]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            fits, runs, rejected = self._runs(
                est, [requests[k] for k in order])
            assert (runs, rejected) == (2, 1)
            for k, fit in zip(order, fits):
                _assert_fit_bitwise(seq[k], fit)

    def test_second_run_only_after_a_rejection(self):
        est, requests = self._requests()
        fits, runs, rejected = self._runs(est, requests[:3])
        assert (runs, rejected) == (1, 0)
        assert [f.warm_started for f in fits] == [True, False, False]
        _fits, runs, rejected = self._runs(est, requests[3:])
        assert (runs, rejected) == (2, 1)


def test_lockstep_covariance_jacobians_are_batch_first_and_contiguous():
    """Winners' Jacobians feed a BLAS ``jac.T @ jac``: each must be the
    C-contiguous ``(N+2, 4)`` slice of the four-parameter Jacobian."""
    est = EllipticalEstimator().with_environment("LOS")
    jobs, _b = _jobs(5, 2, 40, "none")
    jobs = [dataclasses.replace(job, est=est) for job in jobs]
    jobs[1] = dataclasses.replace(jobs[1], p=jobs[1].p[:31],
                                  q=jobs[1].q[:31], rss=jobs[1].rss[:31])
    seeds = [est._initial_candidates(job.p, job.q, job.rss, job.use_q)
             for job in jobs]
    for job, best in zip(jobs, _lockstep(jobs, seeds)):
        theta, _r, jac = best
        assert jac.shape == (len(job.p) + 2, 4) and jac.flags.c_contiguous
        root_n = np.sqrt(len(job.p))
        alone = _jacobian(theta[None, :], job.p[None, :], job.q[None, :],
                          np.array([root_n / est.gamma_prior_sigma]),
                          np.array([root_n / N_PRIOR_SIGMA]))
        _assert_bitwise(jac, alone[:, :, 0])


def _straight_leg_job(est, n_rows=60, seed=11):
    """A cold straight-leg job: ``abs(h0)`` folds the heuristic seeds at
    ±π/4 and ±π/2 into repeats."""
    rng = np.random.default_rng(seed)
    p = -np.linspace(0.0, 3.5, n_rows)
    q = np.zeros(n_rows)
    rss = (-59.0 - 22.0 * np.log10(np.hypot(4.0 + p, 3.0 + q))
           + rng.normal(0.0, 1.0, n_rows))
    return _Job(est, p, q, rss, _uses_q(q), None)


def _distinct(seeds):
    """Seeds' ``(x, h)`` clipped into the box as ``_lockstep`` does,
    repeats dropped."""
    rows = np.clip(np.asarray(seeds, dtype=float)[:, :2], -_XY_MAX + 1e-6,
                   _XY_MAX - 1e-6)
    return list({row.tobytes(): tuple(row) for row in rows}.values())


class TestRepeatedSeeds:
    """A seed whose ``(x, h)`` repeats an earlier one of its job bit for
    bit gets no kernel row; each winner, and ``n_candidates``, stay what
    they were."""

    def _lm_rows(self, jobs, seed_sets):
        before = perf.counter_value("estimator.lm_rows")
        best = _lockstep(jobs, seed_sets)
        return best, perf.counter_value("estimator.lm_rows") - before

    def test_repeats_give_the_winner_of_the_job_without_them(self):
        est = EllipticalEstimator()
        (job,), _b = _jobs(7, 1, 80, "none")
        job = dataclasses.replace(job, est=est)
        seeds = est._initial_candidates(job.p, job.q, job.rss, job.use_q)
        # Every seed twice, the copies interleaved and some moved ahead of
        # later originals; one that differs only in (Γ, n); and two that
        # only the clip makes one.
        x, h, gam, n = seeds[3]
        clipped = [(x + 40.0, h, gam, n)]
        repeated = ([seeds[0], seeds[0]] + seeds[1:5] + seeds[2:4]
                    + seeds[5:] + seeds[::-1] + [(x, h, gam - 9.0, n + 1.0)]
                    + clipped + [(x + 50.0, h, gam, n)])
        other = _straight_leg_job(est, n_rows=80)  # shares the kernel run
        other_seeds = est._initial_candidates(other.p, other.q, other.rss,
                                              other.use_q)
        (want,), n_want = self._lm_rows([job], [seeds + clipped])
        got, n_got = self._lm_rows([job, other], [repeated, other_seeds])
        assert n_want == len(seeds) + 1 == len(_distinct(repeated))
        assert n_got == n_want + len(_distinct(other_seeds))
        for a, b in zip(got[0], want):
            _assert_bitwise(a, b)

    def test_signed_zeros_are_not_repeats(self):
        """``0.0 == -0.0``, but the two seeds are different kernel rows."""
        est = EllipticalEstimator()
        job = _straight_leg_job(est)
        seeds = [(2.0, 0.0), (2.0, -0.0), (2.0, 0.0)]
        _best, rows = self._lm_rows([job], [seeds])
        assert rows == 2

    def test_straight_leg_cold_fit_batch_equals_sequential(self):
        est = EllipticalEstimator()
        job = _straight_leg_job(est)
        offered = est._initial_candidates(job.p, job.q, job.rss, job.use_q)
        assert len(_distinct(offered)) < len(offered)
        (other,), _b = _jobs(8, 1, 60, "none")
        requests = [FitRequest(p=job.p, q=job.q, rss=job.rss),
                    FitRequest(p=other.p, q=other.q, rss=other.rss)]
        seq = [est.fit(r.p, r.q, r.rss) for r in requests]
        bat = fit_batch(requests, default_estimator=est)
        for s, b in zip(seq, bat):
            _assert_fit_bitwise(s, b)
        assert bat[0].mirror is not None
        assert bat[0].n_candidates == len(offered)

    def test_warm_n_beyond_the_grid_fit_batch_equals_sequential(self):
        """A warm exponent past the grid is no obstacle: the warm fit
        seeds only the position, one kernel row and one candidate."""
        est = EllipticalEstimator()
        jobs, _b = _jobs(9, 2, 60, "none")
        cold = est.fit(jobs[0].p, jobs[0].q, jobs[0].rss)
        warm = WarmStartState(
            x=cold.position.x, h=cold.position.y, gamma=cold.gamma,
            n=float(np.max(DEFAULT_N_GRID)) + 0.3,
            rss_rmse=cold.rss_rmse + 1.0)
        assert est._warm_usable(warm)
        requests = [FitRequest(p=j.p, q=j.q, rss=j.rss, warm=w)
                    for j, w in zip(jobs, (warm, cold.warm))]
        before = perf.counter_value("estimator.lm_rows")
        seq = [est.fit(r.p, r.q, r.rss, warm=r.warm) for r in requests[:1]]
        assert perf.counter_value("estimator.lm_rows") - before == 1
        seq.append(est.fit(jobs[1].p, jobs[1].q, jobs[1].rss,
                           warm=cold.warm))
        bat = fit_batch(requests, default_estimator=est)
        for s, b in zip(seq, bat):
            _assert_fit_bitwise(s, b)
        assert bat[0].warm_started and bat[0].n_candidates == 1


def _assert_fit_bitwise(a, b):
    """Every number a fit reports, bit for bit."""
    def numbers(fit):
        return [fit.position.x, fit.position.y, fit.n, fit.gamma,
                fit.epsilon, fit.g, fit.position_std,
                np.nan if fit.cov_cond is None else fit.cov_cond]
    _assert_bitwise(numbers(a), numbers(b))
    _assert_bitwise(a.residuals, b.residuals)
    assert (a.solver, a.cov_status, a.n_candidates, a.warm_started) == (
        b.solver, b.cov_status, b.n_candidates, b.warm_started)
    assert a.warm.to_dict() == b.warm.to_dict()


class TestFitBatchEqualsSequential:
    """``fit_batch`` ≡ the sequential ``fit`` loop, bit for bit, for a
    batch of one and for ragged batches of warm and cold requests."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(8, 160),
           warm=st.booleans())
    @example(seed=0, n_rows=8, warm=False)
    def test_batch_of_one(self, seed, n_rows, warm):
        (job,), _b = _jobs(seed, 1, n_rows, "gamma")
        est = job.est
        state = est.fit(job.p, job.q, job.rss).warm if warm else None
        req = FitRequest(p=job.p, q=job.q, rss=job.rss, warm=state)
        _assert_fit_bitwise(est.fit(req.p, req.q, req.rss, warm=req.warm),
                            fit_batch([req], default_estimator=est)[0])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_jobs=st.integers(2, 8),
           warm=st.lists(st.booleans(), min_size=8, max_size=8))
    @example(seed=3, n_jobs=8, warm=[True, False] * 4)
    def test_ragged_mixed_batch(self, seed, n_jobs, warm):
        jobs, _b = _jobs(seed, n_jobs, 160, "mixed", ragged=True)
        requests = []
        for job, w in zip(jobs, warm):
            state = job.est.fit(job.p, job.q, job.rss).warm if w else None
            requests.append(FitRequest(p=job.p, q=job.q, rss=job.rss,
                                       warm=state, estimator=job.est))
        seq = [r.estimator.fit(r.p, r.q, r.rss, warm=r.warm)
               for r in requests]
        for s, b in zip(seq, fit_batch(requests)):
            _assert_fit_bitwise(s, b)


class TestBoundPinnedParameter:
    """A coordinate on its ±18 m bound whose gradient points out of the
    box is held, and the other one solves alone instead of crawling along
    the bound for every remaining iteration."""

    def _pinned(self):
        """One seed on the x bound, under RSS from a beacon further out
        along +x: descent would push x past 18 m."""
        p, q = _walk(60)
        rss = -59.0 - 20.0 * np.log10(np.hypot(25.0 + p, 3.0 + q))
        job = _Job(EllipticalEstimator(), p, q, rss, True, None)
        _xy0, w, c, lengths, ids = _kernel_inputs([job], [[(0.0, 0.0)]])
        return np.array([[_XY_MAX], [1.0]]), w, c, lengths, ids

    def test_outward_gradient_gets_exactly_zero_step(self):
        inputs = self._pinned()
        start = _evaluate(inputs[0][:, 0], *_row_alone(inputs, 0)[1:])
        assert start[_X] == _XY_MAX and start[_GRAD] < 0.0
        out = _vp_kernel(*inputs, max_iter=1)
        assert out[_X, 0] == _XY_MAX
        h_step = start[_GRAD + 1] / (start[_HESS + 3] + 1e-3)
        np.testing.assert_allclose(out[_H, 0], start[_H] - h_step,
                                   rtol=1e-12)

    def test_freezes_before_max_iter(self):
        inputs = self._pinned()
        out, grew = _run_kernel(inputs)
        assert grew[0] < 60 and grew[1] == 0
        assert out[_X, 0] == _XY_MAX


class TestWarmGate:
    """A warm winner on the ±18 m position bound is rejected
    (``at-bound``) and the job re-runs cold: a lone warm row can slide
    down a flat likelihood to the box edge, where no cold seed goes."""

    def test_warm_fit_on_the_position_bound_is_rejected(self):
        p, q = _walk(60)
        rss = (-59.0 - 20.0 * np.log10(np.hypot(25.0 + p, 3.0 + q))
               + np.random.default_rng(0).normal(0.0, 1.0, 60))
        est = EllipticalEstimator()
        warm = WarmStartState(x=14.0, h=3.0, gamma=-59.0, n=2.0,
                              rss_rmse=2.0)
        with recording() as sink:
            res = est.fit(p, q, rss, warm=warm)
        (event,) = sink.named("solver.warm_rejected")
        assert event.fields["reason"] == "at-bound"
        assert not res.warm_started and res.solver == "gauss-newton"
        _assert_fit_bitwise(res, est.fit(p, q, rss))
        bat = fit_batch([FitRequest(p=p, q=q, rss=rss, warm=warm)],
                        default_estimator=est)
        _assert_fit_bitwise(res, bat[0])


class TestTieRule:
    """Seeds whose costs agree to within ``_TIE_RTOL`` tie: the first in
    seed order wins, not the one rounding made cheaper."""

    def test_near_equal_costs_pick_the_first_seed(self):
        """A straight leg, its q perturbed by 1e-9 m: the optima at ±h
        cost the same but for rounding. Whichever seed comes first wins."""
        rng = np.random.default_rng(0)
        p = -np.linspace(0.0, 4.0, 50)
        q = rng.normal(0.0, 1e-9, 50)
        rss = (-59.0 - 20.0 * np.log10(np.hypot(3.0 + p, 2.5 + q))
               + rng.normal(0.0, 1.0, 50))
        job = _Job(EllipticalEstimator(), p, q, rss, True, None)
        low, high = (3.0, -2.0, -59.0, 2.0), (3.0, 2.0, -59.0, 2.0)
        for order in ([low, high], [high, low]):
            (best,) = _lockstep([job], [order])
            assert np.sign(best[0][1]) == np.sign(order[0][1])
