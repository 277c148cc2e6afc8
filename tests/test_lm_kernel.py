"""The LM kernel: its summation orders, its reuse of work, its merge rule
and its judges.

``_lm_kernel`` builds its Jacobian rows-first, ``(N+2, 4, B)``, and sums
JᵀJ and Jᵀr over the leading (row) axis. These properties pin that reduction
order: the results must be bit-identical — signed zeros included — to the
batch-first ``(B, N+2, 4)`` sums ``np.sum(..., axis=1)``. The kernel
evaluates each trial point once, forms normal equations only for rows
whose trial was accepted, pads shorter windows into the batch and freezes
a row that meets a better row of its job. Two judges that recompute
everything every iteration must agree with it bit for bit: the
one-seed-at-a-time reference below, which uses the batch-first sums, runs
each row on its own window and replays the merge rule over the recorded
paths; and, on full windows with every row a job of its own, the kernel
that did so, retained in ``tests/lm_kernel_recompute.py``. A short window
must give the same bits alone and padded beside a longer one.
``_lockstep`` gives a seed that repeats an earlier one of its job no
kernel row; the winner must not change.
"""

import operator
from functools import reduce

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.estimator import (
    _GN_HI,
    _GN_LO,
    _MERGE_TOL,
    DEFAULT_N_GRID,
    N_PRIOR_SIGMA,
    WARM_N_STEP,
    EllipticalEstimator,
    FitRequest,
    WarmStartState,
    _lm_jacobian,
    _lm_kernel,
    _lm_normal_equations,
    _lm_residuals,
    _lm_terms,
    _lockstep,
    _Job,
    _uses_q,
    fit_batch,
)
from tests import lm_kernel_recompute as recompute


def _assert_bitwise(a, b):
    """Equal values, NaN where NaN, and the same sign on every non-NaN."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    num = ~np.isnan(a)
    assert np.array_equal(np.signbit(a[num]), np.signbit(b[num]))


def _jacobian(theta, p, q, wg, wn):
    """The module's Jacobian of ``theta``, its terms evaluated afresh."""
    return _lm_jacobian(theta, _lm_terms(theta, p, q), wg, wn)


def _residuals(theta, p, q, rss, gp, wg, npr, wn):
    """The module's residuals of ``theta``, its terms evaluated afresh."""
    return _lm_residuals(theta, _lm_terms(theta, p, q), rss, gp, wg, npr, wn)


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
            j = _jacobian(theta, p, q, wg, wn)
            r = _residuals(theta, p, q, rss, gp, wg, npr, wn)
            jtj, grad = _lm_normal_equations(j, r)
            ref_jtj, ref_grad = _batch_first_sums(j, r)
            # One batch-first evaluation feeds both the residuals and the
            # rows-first Jacobian: it must give the bits a rows-first
            # evaluation of hypot and log10 gives.
            _assert_bitwise(j, recompute._lm_jacobian(theta, p, q, wg, wn))
            _assert_bitwise(r, recompute._lm_residuals(
                theta, p, q, rss, gp, wg, npr, wn))
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
        j = _jacobian(theta, p, q, zeros, zeros)
        assert np.all(j[:, :2] == 0.0) and np.any(np.signbit(j[:, :2]))
        _assert_bitwise(j, recompute._lm_jacobian(theta, p, q, zeros, zeros))
        r = _residuals(theta, p, q, rss, zeros, zeros, zeros, zeros)
        jtj, grad = _lm_normal_equations(j, r)
        ref_jtj, ref_grad = _batch_first_sums(j, r)
        _assert_bitwise(np.moveaxis(jtj, -1, 0), ref_jtj)
        _assert_bitwise(grad.T, ref_grad)


def _sequential_cost(r):
    """Each row's squared residuals added one at a time, in row order."""
    return np.array([reduce(operator.add, (row * row).tolist())
                     for row in r])


def _reference_path(theta0, data, priors, max_iter):
    """One seed refined alone, batch-first sums, everything recomputed
    every iteration: its ``(theta, r, cost)`` after 0, 1, ... iterations,
    whether each iteration's step was accepted, and the iteration at which
    it stops by itself (converged, stuck, non-finite or ``max_iter``).

    Models the projected step independently of the kernel's masks: a
    parameter on its bound whose gradient points out of the box is held.
    """
    theta = theta0[None, :]
    r = _residuals(theta, *data, *priors)
    cost = _sequential_cost(r)
    states, accepted = [(theta[0], r[0], cost[0])], [False]
    eye = np.eye(4)
    lam, k = 1e-3, 0
    while np.isfinite(cost[0]) and k < max_iter:
        k += 1
        j = _jacobian(theta, data[0], data[1], priors[1], priors[3])
        jtj, grad = _batch_first_sums(j, r)
        if not (np.isfinite(jtj).all() and np.isfinite(grad).all()):
            states.append(states[-1])
            accepted.append(False)
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
        r_t = _residuals(trial, *data, *priors)
        cost_t = _sequential_cost(r_t)
        if np.isfinite(cost_t[0]) and cost_t[0] < cost[0]:
            gain = cost[0] - cost_t[0]
            theta, r, cost = trial, r_t, cost_t
            lam = max(lam / 3.0, 1e-10)
            states.append((theta[0], r[0], cost[0]))
            accepted.append(True)
            if gain <= 1e-10 * max(cost[0], 1e-12):
                break
        else:
            states.append(states[-1])
            accepted.append(False)
            lam *= 5.0
            if lam > 1e8:
                break
    return states, accepted, k


def _reference_kernel(theta0, p, q, rss, gp, wg, npr, wn, job=None,
                      n_data=None, max_iter=60):
    """Each seed refined alone on its own window (:func:`_reference_path`),
    then the merge rule replayed over the recorded paths:
    ``(theta, r, cost, stops, normal_rows, merged)``.

    After iteration k (k < ``max_iter``), a row that is still moving
    stops if its state lies within ``_MERGE_TOL`` of the state of another
    row of its ``job`` with a lower cost, or an equal cost and a lower
    index; a row that stopped earlier is compared at the state it stopped
    in. ``r`` is padded to the longest window with ``-0.0``. ``stops``
    holds each row's last iteration; ``normal_rows`` counts the normal
    equations the kernel must form: a row's first, and one more after
    each accepted step that leaves the row moving.
    """
    n_batch, n_max = p.shape
    job = list(range(n_batch)) if job is None else list(job)
    n_data = [n_max] * n_batch if n_data is None else list(n_data)
    paths, stops = [], []
    for b in range(n_batch):
        n = n_data[b]
        data = (p[b:b + 1, :n], q[b:b + 1, :n], rss[b:b + 1, :n])
        priors = (gp[b:b + 1], wg[b:b + 1], npr[b:b + 1], wn[b:b + 1])
        states, accepted, stop = _reference_path(theta0[b], data, priors,
                                                 max_iter)
        paths.append((states, accepted))
        stops.append(stop)
    merged = [False] * n_batch
    for k in range(1, max_iter):
        now = [paths[b][0][min(k, stops[b])] for b in range(n_batch)]
        for a in range(n_batch):
            if stops[a] <= k:
                continue
            for b in range(n_batch):
                if b == a or job[b] != job[a]:
                    continue
                if ((now[b][2] < now[a][2]
                     or (now[b][2] == now[a][2] and b < a))
                        and np.all(np.abs(now[a][0] - now[b][0])
                                   <= _MERGE_TOL)):
                    stops[a], merged[a] = k, True
                    break
    theta_out = theta0.copy()
    r_out, cost_out, normal_rows = [], [], 0
    for b, ((states, accepted), stop) in enumerate(zip(paths, stops)):
        theta, r, cost = states[stop]
        n = n_data[b]
        theta_out[b] = theta
        r_out.append(np.concatenate([r[:n], np.full(n_max - n, -0.0),
                                     r[n:]]))
        cost_out.append(cost)
        normal_rows += int(np.isfinite(states[0][2])) + sum(accepted[1:stop])
    return (theta_out, np.array(r_out), np.array(cost_out), stops,
            normal_rows, sum(merged))


def _walk_system(seed, n_batch, n_rows, prior, nonfinite, dup=False,
                 far=False):
    """A solvable batch: seeds around an L-walk's beacon, noisy RSS.

    ``dup`` makes some rows bit-for-bit copies of earlier ones, as a
    repeated seed of one job; ``far`` starts every seed anywhere in the
    box, where most steps are rejected.
    """
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
    if far:
        theta0 = rng.uniform(_GN_LO, _GN_HI, (n_batch, 4))
    on = rng.random((2, n_batch)) < (0.0 if prior == "none" else 0.5
                                      if prior == "mixed" else 1.0)
    root_n = np.sqrt(n_rows)
    gp = np.where(on[0], -59.0, 0.0)
    wg = np.where(on[0], root_n / 6.0, 0.0)
    npr = np.where(on[1], 2.2, 0.0)
    wn = np.where(on[1], root_n / 0.6, 0.0)
    if nonfinite:
        rss[rng.integers(n_batch), rng.integers(n_rows)] = np.nan
    if dup:
        for b in range(1, n_batch):
            if rng.random() < 0.5:
                a = rng.integers(b)
                for arr in (theta0, rss, gp, wg, npr, wn):
                    arr[b] = arr[a]
    return theta0, p, q, rss, gp, wg, npr, wn


def _job_system(seed, n_jobs, n_rows, prior, nonfinite, dup, far, seeds,
                ragged):
    """Jobs of 1 to ``seeds`` seed rows that share one window each:
    ``(args, job, n_data, pad)`` for :func:`_lm_kernel` and
    :func:`_reference_kernel`.

    Each job is one row of :func:`_walk_system` (its own beacon, window,
    priors and first seed); its other seeds start near or far around the
    first, so many of them meet. ``dup`` repeats an earlier seed of the
    job bit for bit, an exact tie; ``ragged`` cuts each job's window to a
    length of its own and fills the rest with junk that ``pad`` must hide.
    """
    theta0, p, q, rss, gp, wg, npr, wn = _walk_system(
        seed, n_jobs, n_rows, prior, nonfinite, far=far)
    rng = np.random.default_rng([seed, 1])
    counts = rng.integers(1, seeds + 1, n_jobs)
    job = np.repeat(np.arange(n_jobs), counts)
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    near = rng.random(len(job))[:, None] < 0.5
    spread = np.where(near, [0.3, 0.3, 1.0, 0.1], [3.0, 3.0, 8.0, 0.8])
    theta = np.clip(theta0[job] + spread * rng.normal(size=(len(job), 4)),
                    _GN_LO, _GN_HI)
    theta[first] = theta0
    if dup:
        for b in range(len(job)):
            if b not in first and rng.random() < 0.4:
                theta[b] = theta[rng.integers(first[job[b]], b)]
    n_data = np.full(n_jobs, n_rows)
    if ragged:
        n_data = rng.integers(8, n_rows + 1, n_jobs)
    pad = np.arange(n_rows) >= n_data[job][:, None]
    junk = rng.uniform(-50.0, 50.0, (3,) + pad.shape)
    p, q, rss = (np.where(pad, j, a[job])
                 for j, a in zip(junk, (p, q, rss)))
    args = (theta, p, q, rss, gp[job], wg[job], npr[job], wn[job])
    return args, job, n_data[job], pad if ragged else None


_KERNEL_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_batch=st.integers(1, 40),
    n_rows=st.integers(8, 160),
    prior=st.sampled_from(["none", "both", "mixed"]),
    nonfinite=st.booleans(),
    dup=st.booleans(),
    far=st.booleans(),
    max_iter=st.sampled_from([3, 60]),
)

_JOB_CASES = dict(
    _KERNEL_CASES,
    n_batch=st.integers(1, 12),
    seeds=st.integers(1, 6),
    ragged=st.booleans(),
)


def _kernel_examples(test):
    """Serving-sized batches, repeated seed rows and reject-heavy starts."""
    for seed, n_batch, n_rows, dup, far in ((2, 39, 160, True, False),
                                            (3, 12, 120, True, True),
                                            (4, 40, 100, False, True),
                                            (5, 3, 160, True, False)):
        test = example(seed=seed, n_batch=n_batch, n_rows=n_rows,
                       prior="mixed", nonfinite=False, dup=dup, far=far,
                       max_iter=60)(test)
    return test


def _job_examples(test):
    """A warm-phase tick (3 seeds a job), a cold one (up to 6), ragged and
    reject-heavy batches, and one job alone."""
    for seed, n_batch, n_rows, seeds, dup, far, ragged in (
            (2, 12, 160, 3, False, False, False),
            (3, 4, 160, 6, True, False, True),
            (4, 8, 100, 5, False, True, True),
            (5, 1, 160, 6, True, False, False)):
        test = example(seed=seed, n_batch=n_batch, n_rows=n_rows,
                       prior="mixed", nonfinite=False, dup=dup, far=far,
                       seeds=seeds, ragged=ragged, max_iter=60)(test)
    return test


#: The kernel's perf counters, in :func:`_reference_kernel`'s terms.
_KERNEL_COUNTERS = ("estimator.lm_iterations", "estimator.lm_max_iter_calls",
                    "estimator.lm_normal_rows", "estimator.lm_rows_merged",
                    "estimator.lm_kernel_calls")


class TestKernelEqualsReferenceLoop:
    @settings(max_examples=40, deadline=None)
    @given(**_JOB_CASES)
    @_job_examples
    def test_kernel_equals_one_seed_reference(
            self, seed, n_batch, n_rows, prior, nonfinite, dup, far, seeds,
            ragged, max_iter):
        args, job, n_data, pad = _job_system(
            seed, n_batch, n_rows, prior, nonfinite, dup, far, seeds, ragged)
        before = [perf.counter_value(n) for n in _KERNEL_COUNTERS]
        theta, r, cost = _lm_kernel(*args, job=job, pad=pad,
                                    max_iter=max_iter)
        grew = tuple(perf.counter_value(n) - b
                     for n, b in zip(_KERNEL_COUNTERS, before))
        ref_theta, ref_r, ref_cost, stops, normal_rows, merged = (
            _reference_kernel(*args, job=job, n_data=n_data,
                              max_iter=max_iter))
        _assert_bitwise(theta, ref_theta)
        _assert_bitwise(r, ref_r)
        _assert_bitwise(cost, ref_cost)
        # The batch runs until its slowest row freezes, and forms normal
        # equations only for rows whose step was accepted.
        assert grew == (max(stops), int(max(stops) == max_iter),
                        normal_rows, merged, 1)

    @settings(max_examples=40, deadline=None)
    @given(**_KERNEL_CASES)
    @_kernel_examples
    def test_kernel_equals_the_recomputing_kernel(
            self, seed, n_batch, n_rows, prior, nonfinite, dup, far,
            max_iter):
        """Bit for bit the kernel that rebuilt every live row's Jacobian
        and normal equations every iteration, on full windows with every
        row a job of its own."""
        args = _walk_system(seed, n_batch, n_rows, prior, nonfinite, dup,
                            far)
        with np.errstate(all="ignore"):
            ref = recompute._lm_kernel(*args, max_iter=max_iter)
        for got, want in zip(_lm_kernel(*args, max_iter=max_iter), ref):
            _assert_bitwise(got, want)

    def test_far_starts_are_reject_heavy(self):
        """The ``far`` examples exercise carried normal equations: over a
        third of their row-iterations form none, more than on any serving
        workload (a fifth to a third)."""
        args = _walk_system(4, 40, 100, "mixed", False, far=True)
        _theta, _r, _cost, stops, normal_rows, _merged = (
            _reference_kernel(*args))
        assert normal_rows < 0.65 * sum(stops)


class TestMergeRule:
    """A live row within ``_MERGE_TOL`` of a lower-cost row of its job
    freezes; rows of other jobs never stop it."""

    def _one_job(self, seeds):
        """One L-walk window (:func:`_walk_system`), one row per seed."""
        theta0, p, q, rss, gp, wg, npr, wn = _walk_system(
            21, 1, 120, "both", False)
        rows = np.zeros(len(seeds), dtype=np.intp)
        return (np.asarray(seeds, dtype=float), p[rows], q[rows], rss[rows],
                gp[rows], wg[rows], npr[rows], wn[rows]), theta0[0]

    def _merged(self, args, job, max_iter=60):
        before = perf.counter_value("estimator.lm_rows_merged")
        out = _lm_kernel(*args, job=job, max_iter=max_iter)
        return out, perf.counter_value("estimator.lm_rows_merged") - before

    def test_rows_that_meet_freeze(self):
        """Five seeds around one beacon reach one optimum: rows freeze on
        meeting a better one, as the reference replay says, and the job's
        winner lands within the tolerance of the unmerged winner."""
        _args, start = self._one_job([])
        seeds = start + np.array([[0.0, 0.0, 0.0, 0.0],
                                  [0.4, -0.3, 2.0, 0.1],
                                  [-0.5, 0.2, -3.0, -0.2],
                                  [0.2, 0.6, 1.0, 0.3],
                                  [-0.3, -0.4, -1.5, 0.15]])
        args, _start = self._one_job(seeds)
        job = np.zeros(len(seeds), dtype=np.intp)
        (theta, r, cost), merged = self._merged(args, job)
        ref = _reference_kernel(*args, job=job)
        for got, want in zip((theta, r, cost), ref):
            _assert_bitwise(got, want)
        assert merged == ref[5] >= 2
        apart, _r, apart_cost = _lm_kernel(*args)
        win, apart_win = int(np.argmin(cost)), int(np.argmin(apart_cost))
        assert np.all(np.abs(theta[win] - apart[apart_win]) <= _MERGE_TOL)

    def test_equal_costs_freeze_the_later_row(self):
        """Two copies of one seed tie after the first iteration: the later
        freezes there, the earlier runs on as if alone. Copies in two jobs
        both run on."""
        _args, start = self._one_job([])
        args, _start = self._one_job([start, start])
        (theta, r, cost), merged = self._merged(args, np.array([0, 0]))
        assert merged == 1
        alone = _lm_kernel(*(a[:1] for a in args))
        first = _lm_kernel(*(a[:1] for a in args), max_iter=1)
        for got, want, step in zip((theta, r, cost), alone, first):
            _assert_bitwise(got[0], want[0])
            _assert_bitwise(got[1], step[0])
        assert not np.array_equal(alone[0], first[0])
        (theta, r, cost), merged = self._merged(args, np.array([0, 1]))
        assert merged == 0
        for got, want in zip((theta, r, cost), alone):
            _assert_bitwise(got[1], want[0])


class TestShortWindowAloneAndPadded:
    """A short window refined alone — B = 1 — and padded beside a longer
    window gives the same bits. A pairwise cost (``np.sum`` along the row
    axis, or along axis 0 of a rows-first ``(M, 1)`` array when B = 1)
    adds the two in different blocks and fails this."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 159))
    @example(seed=0, n=37)
    @example(seed=1, n=129)
    def test_kernel_row_alone_equals_padded(self, seed, n):
        theta0, p, q, rss, gp, wg, npr, wn = _walk_system(
            seed, 2, 160, "both", False)
        one = slice(0, 1)
        alone = _lm_kernel(theta0[one], p[one, :n], q[one, :n],
                           rss[one, :n], gp[one], wg[one], npr[one], wn[one],
                           max_iter=1)
        pad = np.arange(160) >= np.array([[n], [160]])
        padded = _lm_kernel(theta0, p, q, rss, gp, wg, npr, wn,
                            job=np.array([0, 1]), pad=pad, max_iter=1)
        _assert_bitwise(padded[2][:1], alone[2])
        _assert_bitwise(padded[0][:1], alone[0])
        _assert_bitwise(np.delete(padded[1][0], np.s_[n:160]), alone[1][0])

    def test_fits_alone_equal_fits_padded(self):
        """Through ``_lockstep`` and ``fit_batch``, cold and warm: one
        kernel run per phase, and each fit what it is alone."""
        est = EllipticalEstimator().with_environment("LOS")
        _theta0, p, q, rss, *_ = _walk_system(12, 2, 160, "none", False)
        short = _Job(est, p[0, 23:60], q[0, 23:60], rss[0, 23:60],
                     _uses_q(q[0, 23:60]), None)
        long = _Job(est, p[1], q[1], rss[1], _uses_q(q[1]), None)
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
        # One kernel run per phase: the warm jobs', then the cold jobs'.
        assert perf.counter_value("estimator.lm_kernel_calls") - before == 2
        for s, b in zip(seq, bat[1::-1] + bat[2:]):
            _assert_fit_bitwise(s, b)


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
    """Seeds clipped into the box as ``_lockstep`` does, repeats dropped."""
    rows = np.clip(np.asarray(seeds, dtype=float), _GN_LO + 1e-6,
                   _GN_HI - 1e-6)
    return list({row.tobytes(): tuple(row) for row in rows}.values())


class TestRepeatedSeeds:
    """A seed that repeats an earlier one of its job bit for bit gets no
    kernel row; each winner, and ``n_candidates``, stay what they were."""

    def _lm_rows(self, jobs, seed_sets):
        before = perf.counter_value("estimator.lm_rows")
        best = _lockstep(jobs, seed_sets)
        return best, perf.counter_value("estimator.lm_rows") - before

    def test_repeats_give_the_winner_of_the_job_without_them(self):
        est = EllipticalEstimator()
        _theta0, p, q, rss, *_ = _walk_system(7, 1, 80, "none", False)
        job = _Job(est, p[0], q[0], rss[0], _uses_q(q[0]), None)
        seeds = est._initial_candidates(job.p, job.q, job.rss, job.use_q)
        # Every seed twice, the copies interleaved and some moved ahead of
        # later originals, plus one seed only the clip makes a repeat.
        x, h, gam, n = seeds[3]
        clipped = [(x, h, gam, n + 10.0)]
        repeated = ([seeds[0], seeds[0]] + seeds[1:5] + seeds[2:4]
                    + seeds[5:] + seeds[::-1] + clipped
                    + [(x, h, gam, 6.0)])
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
        seeds = [(2.0, 0.0, -60.0, 2.0), (2.0, -0.0, -60.0, 2.0),
                 (2.0, 0.0, -60.0, 2.0)]
        _best, rows = self._lm_rows([job], [seeds])
        assert rows == 2

    def test_straight_leg_cold_fit_batch_equals_sequential(self):
        est = EllipticalEstimator()
        job = _straight_leg_job(est)
        offered = est._initial_candidates(job.p, job.q, job.rss, job.use_q)
        assert len(_distinct(offered)) < len(offered)
        _theta0, p, q, rss, *_ = _walk_system(8, 1, 60, "none", False)
        requests = [FitRequest(p=job.p, q=job.q, rss=job.rss),
                    FitRequest(p=p[0], q=q[0], rss=rss[0])]
        seq = [est.fit(r.p, r.q, r.rss) for r in requests]
        bat = fit_batch(requests, default_estimator=est)
        for s, b in zip(seq, bat):
            _assert_fit_bitwise(s, b)
        assert bat[0].mirror is not None
        assert bat[0].n_candidates == len(offered)

    def test_warm_n_beyond_the_grid_fit_batch_equals_sequential(self):
        """A warm exponent one step past the grid maximum clips all three
        warm seeds onto the grid edge: one kernel row, three candidates."""
        est = EllipticalEstimator()
        _theta0, p, q, rss, *_ = _walk_system(9, 2, 60, "none", False)
        cold = est.fit(p[0], q[0], rss[0])
        warm = WarmStartState(
            x=cold.position.x, h=cold.position.y, gamma=cold.gamma,
            n=float(np.max(DEFAULT_N_GRID)) + WARM_N_STEP,
            rss_rmse=cold.rss_rmse + 1.0)
        assert est._warm_usable(warm)
        seeds = est._warm_seeds(warm, True)
        assert len(_distinct(seeds)) == 1
        requests = [FitRequest(p=p[0], q=q[0], rss=rss[0], warm=warm),
                    FitRequest(p=p[1], q=q[1], rss=rss[1], warm=cold.warm)]
        before = perf.counter_value("estimator.lm_rows")
        seq = [est.fit(r.p, r.q, r.rss, warm=r.warm) for r in requests[:1]]
        assert perf.counter_value("estimator.lm_rows") - before == 1
        seq.append(est.fit(p[1], q[1], rss[1], warm=cold.warm))
        bat = fit_batch(requests, default_estimator=est)
        for s, b in zip(seq, bat):
            _assert_fit_bitwise(s, b)
        assert bat[0].warm_started and bat[0].n_candidates == 3


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
            _jacobian(theta0, p, q, wg, wn),
            _residuals(theta0, p, q, rss, gp, wg, npr, wn))
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
