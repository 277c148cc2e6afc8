"""Hot-path performance benchmarks: vectorized kernels vs their references.

Times the overhauled hot paths against the retained reference
implementations and writes ``BENCH_perf.json`` at the repo root:

* the estimator's exponent grid search (batched LS vs per-candidate loop);
* the LM kernel at the serving shape (the separable kernel on one
  ``(x, h)`` row per warm job vs the four-parameter kernel it replaced on
  that job's three warm seeds, retained in ``tests/lm_kernel_recompute.py``);
* a churn-like tick of cold and warm windows of distinct lengths (one
  ``fit_batch`` whose kernel takes the windows in one run, vs
  one ``fit_batch`` per window length, the runs the kernel made when it
  grouped by length); reported only, with no target;
* the serving ANF (float-loop filters vs the NumPy-scalar reference loops
  retained in ``tests/test_filters.py``);
* checkpoint saves (one long-lived store that remembers what it verified
  vs a fresh store per save that re-verifies every retained snapshot);
* banded DTW (two-buffer vectorized band vs per-cell DP);
* the Monte-Carlo sweep (process pool vs serial — only meaningful on
  multi-core hosts; the report records ``effective_cpus`` so a 1-CPU
  container's numbers are not mistaken for a regression).

Every row times :data:`RUNS` alternating before/after runs and reports
the medians; its speedup, the one a target judges, is the median of the
runs' before/after ratios, so one slow run on a shared host moves no
verdict.

Run directly (``python benchmarks/bench_perf_hotpaths.py``) to regenerate
``BENCH_perf.json``, or via pytest (``pytest
benchmarks/bench_perf_hotpaths.py -m perf``), which checks the targets and
leaves the committed report alone. Render the report with ``python -m
repro.perf.report``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro import perf
from repro.core import anf as anf_module
from repro.core.anf import AdaptiveNoiseFilter
from repro.core.estimator import (
    _COST,
    DEFAULT_N_GRID,
    EllipticalEstimator,
    FitRequest,
    _Job,
    _kernel_inputs,
    _uses_q,
    _vp_kernel,
    fit_batch,
)
from repro.core.pipeline import LocBLE
from repro.durability import CheckpointStore
from repro.dtw.dtw import _dtw_distance_reference, dtw_distance
from repro.filters import butterworth
from repro.fleet import FleetConfig, TrackingFleet
from repro.sim.load import LoadConfig, generate_load
from repro.sim.montecarlo import stationary_trials
from repro.sim.soak import simulate_walk
from repro.types import ImuTrace
from repro.world.scenarios import scenario

REPO_ROOT = Path(__file__).resolve().parents[1]
REPORT_PATH = REPO_ROOT / "BENCH_perf.json"

#: (target speedups from the issue's acceptance criteria)
TARGET_ESTIMATOR = 3.0
TARGET_DTW = 5.0
TARGET_PARALLEL = 2.0
TARGET_WARM = 5.0
TARGET_BATCH = 3.0
TARGET_ANF = 3.0
TARGET_CHECKPOINT = 3.0
TARGET_LM_KERNEL = 1.0


def _parallel_target(cpus: int) -> float:
    """The pool-speedup bar this host can actually express.

    A process pool's speedup is bounded by physical cores: on >= 4 CPUs we
    hold the issue's full target; below that the bar scales down, and on a
    1-CPU host (where the pool can only add overhead) it drops to "no
    pathological slowdown" rather than hard-failing the bench.
    """
    if cpus >= 4:
        return TARGET_PARALLEL
    return max(0.2, 0.5 * (cpus - 1))


#: Alternating before/after runs per row; a row's verdict is the median.
RUNS = 5


def _best_of(fn: Callable[[], object], repeats: int = 7, number: int = 5) -> float:
    """Best mean-per-call over ``repeats`` batches of ``number`` calls."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def _paired(before: Callable[[], object], after: Callable[[], object],
            repeats: int = 2, number: int = 5,
            after_number: int = 0) -> Tuple[float, float, float]:
    """``(before_s, after_s, speedup)`` from :data:`RUNS` alternating runs,
    each the best mean-per-call of ``repeats`` batches (``number`` calls
    before, ``after_number`` or ``number`` after): the median times and
    the median of the runs' before/after ratios."""
    runs = [(_best_of(before, repeats, number),
             _best_of(after, repeats, after_number or number))
            for _ in range(RUNS)]
    return (statistics.median(b for b, _a in runs),
            statistics.median(a for _b, a in runs),
            statistics.median(b / a for b, a in runs))


def _estimator_workload(seed: int = 7, beacon_x: float = 2.0,
                        beacon_y: float = 2.5, n_samples: int = 40):
    """A realistic L-walk regression input: ``n_samples`` matched samples."""
    rng = np.random.default_rng(seed)
    # Observer walks an L (2.8 m then 2.2 m); beacon 2.5 m off the path.
    frac = np.linspace(0.0, 1.0, n_samples)
    leg1 = frac < 0.56
    ox = np.where(leg1, frac / 0.56 * 2.8, 2.8)
    oy = np.where(leg1, 0.0, (frac - 0.56) / 0.44 * 2.2)
    p, q = -ox, -oy
    dist = np.hypot(ox - beacon_x, oy - beacon_y)
    rss = -55.0 - 10.0 * 2.2 * np.log10(np.maximum(dist, 0.1))
    rss = rss + rng.normal(0.0, 1.5, n_samples)
    return p, q, rss


def bench_estimator() -> Dict[str, object]:
    est = EllipticalEstimator()
    p, q, rss = _estimator_workload()
    ref = est._fit_linearized_reference(p, q, rss, use_q=True)
    vec = est._fit_linearized(p, q, rss, use_q=True)
    assert np.isclose(ref.n, vec.n)
    assert np.isclose(ref.gamma, vec.gamma, rtol=1e-9)
    assert np.isclose(ref.position.x, vec.position.x, rtol=1e-9)
    assert np.isclose(ref.position.y, vec.position.y, rtol=1e-9)
    before, after, speedup = _paired(
        lambda: est._fit_linearized_reference(p, q, rss, use_q=True),
        lambda: est._fit_linearized(p, q, rss, use_q=True))
    return {
        "before_s": before,
        "after_s": after,
        "speedup": speedup,
        "target_speedup": TARGET_ESTIMATOR,
        "meets_target": speedup >= TARGET_ESTIMATOR,
        "note": f"{len(DEFAULT_N_GRID)}-point exponent grid, {len(p)} samples, "
                "batched QR vs per-candidate lstsq loop",
    }


def _serving_windows(n_beacons: int = 24, window_s: float = 20.0,
                     slide_s: float = 2.0, seed: int = 0):
    """One serving tick's solve requests, cold and warm.

    The load generator's LOS world (scenario 1): one simulated walk past
    ``n_beacons`` beacons, the ``steady_los`` shape. Each beacon's first
    20 s window is solved cold; the window ``slide_s`` later is requested
    twice, cold and warm from that fit's state, re-anchored into the new
    window's frame by ``PreparedEstimate.request``. Returns the two request
    lists.
    """
    ids = [f"b{k:02d}" for k in range(n_beacons)]
    rec = simulate_walk(1, np.random.default_rng(seed),
                        window_s + slide_s + 4.0, ids)
    imu = rec.observer_imu.trace
    loc = LocBLE(sanitize="repair")
    t1 = window_s + 2.0
    t2 = t1 + slide_s

    def prepare(beacon: str, t: float):
        imu_window = ImuTrace([s for s in imu.samples
                               if t - window_s <= s.timestamp < t])
        rss = rec.rssi_traces[beacon].slice_time(t - window_s, t)
        return loc.prepare_estimate(rss, imu_window)

    cold, warm = [], []
    for beacon in ids:
        first = prepare(beacon, t1)
        fix = loc.complete_estimate(first, fit_batch([first.request()])[0])
        nxt = prepare(beacon, t2)
        cold.append(nxt.request())
        warm.append(nxt.request(fix.diagnostics.warm))
    return cold, warm


def bench_warm_start() -> Dict[str, object]:
    """The serving case: one tick's ``fit_batch`` over 24 sessions' next
    windows after a 2 s slide, every session cold vs every session warm
    from its re-anchored seed (3 seeds each, same kernel)."""
    cold_reqs, warm_reqs = _serving_windows()
    cold = fit_batch(cold_reqs)
    warm = fit_batch(warm_reqs)
    assert all(r.warm_started for r in warm), "warm fast path must engage"
    gap = max(w.position.distance_to(c.position) for w, c in zip(warm, cold))
    assert gap < 0.5, gap
    before, after, speedup = _paired(lambda: fit_batch(cold_reqs),
                                     lambda: fit_batch(warm_reqs),
                                     number=2, after_number=5)
    return {
        "before_s": before,
        "after_s": after,
        "speedup": speedup,
        "target_speedup": TARGET_WARM,
        "meets_target": speedup >= TARGET_WARM,
        "note": f"{len(warm_reqs)} sessions' 20 s windows 2 s after a cold "
                "fix (LOS soak world, seed 0): one cold fit_batch vs one "
                "fit_batch warm from the re-anchored seeds; warm and cold "
                f"positions agree to {gap:.1e} m",
    }


def bench_fit_batch(n_sessions: int = 32) -> Dict[str, object]:
    """One batched kernel for N sessions' warm solves vs the same solves in
    a sequential Python loop (both through the identical lockstep LM)."""
    est = EllipticalEstimator()
    rng = np.random.default_rng(37)
    requests = []
    for i in range(n_sessions):
        p, q, rss = _estimator_workload(
            seed=100 + i,
            beacon_x=1.0 + 0.1 * i,
            beacon_y=1.5 + 0.05 * i,
        )
        warm = est.fit(p, q, rss).warm
        assert warm is not None
        rss2 = rss + rng.normal(0.0, 0.4, rss.shape)
        requests.append(FitRequest(p=p, q=q, rss=rss2, warm=warm))

    def sequential():
        return [est.fit(r.p, r.q, r.rss, warm=r.warm) for r in requests]

    seq = sequential()
    bat = fit_batch(requests, default_estimator=est)
    assert all(r.warm_started for r in seq), "all requests must stay warm"
    for s, b in zip(seq, bat):
        assert s.position.x == b.position.x and s.position.y == b.position.y
        assert np.array_equal(s.residuals, b.residuals)

    before, after, speedup = _paired(
        sequential, lambda: fit_batch(requests, default_estimator=est),
        number=3)
    return {
        "before_s": before,
        "after_s": after,
        "speedup": speedup,
        "target_speedup": TARGET_BATCH,
        "meets_target": speedup >= TARGET_BATCH,
        "note": f"{n_sessions}-session batch, 40-sample windows; one "
                "stacked lockstep-LM kernel vs per-session warm fits; "
                "results verified bit-identical",
    }


def _load_tests_module(name: str):
    """A module under ``tests/`` loaded by path (benchmarks do not import
    the tests package). A test module may import helpers from the
    ``tests`` package, so the repository root is put on ``sys.path``:
    run as a script, only ``benchmarks/`` and the installed package are
    importable."""
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    path = REPO_ROOT / "tests" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_lm_kernel(n_beacons: int = 12) -> Dict[str, object]:
    """One warm kernel run at the ``steady_los`` serving shape: the
    re-anchored warm states of 12 sessions' next windows
    (:func:`_serving_windows`), every window cut to the newest N samples
    of the shortest. "Before" is the four-parameter kernel the separable
    solve replaced (``tests/lm_kernel_recompute.py``) on the three seeds
    it refined per warm job (the previous exponent and that exponent
    ± 0.3), B=36; "after" the separable kernel on the one ``(x, h)`` row
    per job it refines now, B=12. Each job's best cost is verified to
    match or beat the four-parameter kernel's. The two are timed in
    alternation, so host drift reaches both sides alike."""
    est = EllipticalEstimator()
    ref = _load_tests_module("lm_kernel_recompute")
    _cold, warm = _serving_windows(n_beacons=n_beacons)
    n = min(len(req.p) for req in warm)
    jobs, thetas = [], []
    for req in warm:
        p, q, rss = (np.asarray(a, dtype=float)[-n:]
                     for a in (req.p, req.q, req.rss))
        job = _Job(est, p, q, rss, _uses_q(q), req.warm)
        x, h = est._warm_seed(req.warm, job.use_q)
        jobs.append(job)
        thetas.append(ref.warm_seeds(x, h, req.warm.gamma, req.warm.n))
    theta0 = np.clip(np.concatenate(thetas), ref._GN_LO + 1e-6,
                     ref._GN_HI - 1e-6)
    b = len(theta0)
    args = (theta0, *(np.repeat([getattr(j, a) for j in jobs], 3, axis=0)
                      for a in ("p", "q", "rss")),
            np.full(b, est.gamma_prior),
            np.full(b, math.sqrt(n) / est.gamma_prior_sigma),
            np.zeros(b), np.zeros(b))
    inputs = _kernel_inputs(jobs, [[est._warm_seed(j.warm, j.use_q)]
                                   for j in jobs])
    kernels = {"before": lambda: ref._lm_kernel(*args),
               "after": lambda: _vp_kernel(*inputs)}
    old_cost = kernels["before"]()[2].reshape(-1, 3).min(axis=1)
    new_cost = kernels["after"]()[_COST]
    assert np.all(new_cost <= old_cost * (1.0 + 1e-6)), "separable worse"
    before, after, speedup = _paired(kernels["before"], kernels["after"])
    return {
        "before_s": before,
        "after_s": after,
        "speedup": speedup,
        "target_speedup": TARGET_LM_KERNEL,
        "meets_target": speedup >= TARGET_LM_KERNEL,
        "note": f"{n_beacons} warm jobs x N={n} samples (LOS soak world, "
                f"seed 0): the separable kernel on one (x, h) row per job "
                f"vs the four-parameter kernel on its three warm seeds "
                f"(B={b}); every job's best cost matches or beats the "
                "four-parameter kernel's",
    }


def bench_ragged_tick(n_beacons: int = 6) -> Dict[str, object]:
    """A ``churn_nlos``-like tick: :func:`_serving_windows` cut to six
    distinct window lengths, three jobs cold and three warm. "Before"
    solves each window length with its own ``fit_batch``, the kernel runs
    that grouping by length made; "after" is one ``fit_batch`` over the
    tick, one kernel run. Results verified bit-identical; timed
    in alternation."""
    cold, warm = _serving_windows(n_beacons=n_beacons)
    requests = []
    for k, (c, w) in enumerate(zip(cold, warm)):
        req = c if k % 2 else w
        n = min(len(req.p), 160) - 17 * k
        requests.append(FitRequest(p=req.p[-n:], q=req.q[-n:],
                                   rss=req.rss[-n:], warm=req.warm))
    assert len({len(r.p) for r in requests}) == len(requests)

    def grouped():
        return [res for req in requests for res in fit_batch([req])]

    def whole():
        return fit_batch(requests)

    for a, b in zip(grouped(), whole()):
        assert (a.position.x, a.position.y, a.n, a.gamma, a.position_std) \
            == (b.position.x, b.position.y, b.n, b.gamma, b.position_std)
        assert np.array_equal(a.residuals, b.residuals), "results differ"
    before, after, speedup = _paired(grouped, whole, number=3)
    lengths = ", ".join(str(len(r.p)) for r in requests)
    return {
        "before_s": before,
        "after_s": after,
        "speedup": speedup,
        "note": f"{len(requests)} windows of distinct lengths ({lengths} "
                "samples; warm and cold alternate, LOS soak world, seed 0): "
                "one fit_batch per window length vs one fit_batch over the "
                "tick; results verified bit-identical; reported, not gated",
    }


@contextlib.contextmanager
def _reference_filters(ref):
    """Route the ANF through the retained NumPy-scalar reference loops of
    ``ref`` (``tests/test_filters.py``).

    ``ButterworthLowPass.apply`` and ``AdaptiveNoiseFilter.apply`` call
    these two functions through their module globals, so swapping them
    times the reference with every other line of ``apply`` unchanged.
    """
    saved = butterworth.sos_filter, anf_module.adaptive_kalman_fuse
    butterworth.sos_filter = ref.reference_sos_filter
    anf_module.adaptive_kalman_fuse = ref.reference_adaptive_kalman_fuse
    try:
        yield
    finally:
        butterworth.sos_filter, anf_module.adaptive_kalman_fuse = saved


def bench_anf_apply() -> Dict[str, object]:
    """One serving-sized ANF window: the float-loop Butterworth and AKF vs
    the NumPy-scalar loops they replaced, verified bit-identical."""
    rng = np.random.default_rng(41)
    fs_hz = 8.0
    values = np.where(np.arange(160) < 80, -62.0, -71.0)
    values = values + rng.normal(0.0, 3.0, 160)
    anf = AdaptiveNoiseFilter()
    ref = _load_tests_module("test_filters")

    def reference():
        with _reference_filters(ref):
            return anf.apply(values, fs_hz)

    assert np.array_equal(reference(), anf.apply(values, fs_hz)), \
        "ANF must be bit-identical"
    before, after, speedup = _paired(
        reference, lambda: anf.apply(values, fs_hz), after_number=20)
    return {
        "before_s": before,
        "after_s": after,
        "speedup": speedup,
        "target_speedup": TARGET_ANF,
        "meets_target": speedup >= TARGET_ANF,
        "note": "160-sample window at 8 Hz (one 20 s serving window); "
                "Butterworth + AKF over Python floats vs over NumPy "
                "scalars with np.mean/np.std; outputs verified bit-identical",
    }


def _fleet_checkpoint() -> Dict[str, object]:
    """A serving-sized fleet checkpoint (~0.4 MB of canonical JSON): 48
    beacons through a 2-shard fleet for 20 s of generated load."""
    stream = generate_load(LoadConfig(duration_s=20.0, seed=3,
                                      n_beacons=48, template_beacons=2))
    fleet = TrackingFleet(FleetConfig(n_shards=2))
    for t, scans, imu in stream.ticks:
        fleet.ingest_scans(scans)
        fleet.ingest_imu(imu)
        fleet.tick(float(t))
    return fleet.checkpoint()


def _store_tree(root: str) -> Dict[str, bytes]:
    base = Path(root)
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def bench_checkpoint_save(retain: int = 4) -> Dict[str, object]:
    """Steady-state ``CheckpointStore.save`` of a fleet checkpoint at
    ``retain=4``: one long-lived store, which remembers the snapshots it
    wrote or verified, vs a fresh store per save, which parses and
    re-digests every retained snapshot. Both directories receive the same
    save sequence and must end byte-identical."""
    fleet = _fleet_checkpoint()
    with tempfile.TemporaryDirectory() as before_root, \
            tempfile.TemporaryDirectory() as after_root:
        live = CheckpointStore(after_root, retain=retain, durability="flush")
        ticks = {before_root: 0, after_root: 0}

        def save(store: CheckpointStore) -> None:
            tick = ticks[str(store.root)]
            ticks[str(store.root)] = tick + 1
            store.save("fleet", {"tick": tick, "fleet": fleet}, tick=tick)

        def fresh_save() -> None:
            save(CheckpointStore(before_root, retain=retain,
                                 durability="flush"))

        for _ in range(retain + 1):  # fill retention: every save rotates
            fresh_save()
            save(live)
        before, after, speedup = _paired(fresh_save, lambda: save(live),
                                         repeats=1, number=3)
        assert _store_tree(before_root) == _store_tree(after_root), \
            "both stores must leave byte-identical files"
        n_bytes = live.latest("fleet").n_bytes
    return {
        "before_s": before,
        "after_s": after,
        "speedup": speedup,
        "target_speedup": TARGET_CHECKPOINT,
        "meets_target": speedup >= TARGET_CHECKPOINT,
        "note": f"{n_bytes / 1e3:.0f} KB fleet checkpoint (48 beacons, 2 "
                f"shards), retain={retain}, durability='flush'; one "
                "long-lived store vs a fresh store per save, directories "
                "verified byte-identical. 'before' understates the old "
                "save, which also encoded the body twice and re-verified "
                "the retained snapshots twice per save",
    }


def bench_dtw() -> Dict[str, object]:
    rng = np.random.default_rng(11)
    a = np.cumsum(rng.normal(0.0, 1.0, 200))
    b = np.cumsum(rng.normal(0.0, 1.0, 200))
    w = 10
    assert np.isclose(_dtw_distance_reference(a, b, window=w),
                      dtw_distance(a, b, window=w), rtol=1e-9)
    before, after, speedup = _paired(
        lambda: _dtw_distance_reference(a, b, window=w),
        lambda: dtw_distance(a, b, window=w), after_number=20)
    return {
        "before_s": before,
        "after_s": after,
        "speedup": speedup,
        "target_speedup": TARGET_DTW,
        "meets_target": speedup >= TARGET_DTW,
        "note": "two 200-sample sequences, window=10; vectorized band "
                "update vs per-cell DP loop",
    }


def bench_parallel() -> Dict[str, object]:
    sc = scenario(3)
    seeds = range(20)

    def serial():
        return stationary_trials(sc, seeds, parallel="off",
                                 failure_value=99.0)

    def pooled():
        return stationary_trials(sc, seeds, parallel="force", max_workers=4,
                                 failure_value=99.0)

    assert serial() == pooled(), \
        "parallel sweep must be bit-identical to serial"
    before, after, speedup = _paired(serial, pooled, repeats=1, number=1)
    cpus = os.cpu_count() or 1
    target = _parallel_target(cpus)
    return {
        "before_s": before,
        "after_s": after,
        "speedup": speedup,
        "target_speedup": target,
        "meets_target": speedup >= target,
        "note": f"20-seed stationary sweep, 4 workers vs serial on "
                f"{cpus} CPU(s); results verified bit-identical. The "
                "target scales with effective CPUs — on a single-CPU host "
                "the pool only adds overhead, so the bar is merely 'no "
                "pathological slowdown'.",
    }


def build_report() -> Dict[str, object]:
    perf.reset()
    benches = {
        "estimator_grid_search": bench_estimator(),
        "estimator_warm_start": bench_warm_start(),
        "estimator_fit_batch": bench_fit_batch(),
        "estimator_lm_kernel": bench_lm_kernel(),
        "estimator_ragged_tick": bench_ragged_tick(),
        "anf_apply": bench_anf_apply(),
        "checkpoint_save": bench_checkpoint_save(),
        "dtw_distance_banded": bench_dtw(),
        "parallel_stationary_trials": bench_parallel(),
    }
    return {
        "meta": {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "effective_cpus": os.cpu_count() or 1,
            "numpy": np.__version__,
        },
        "benches": benches,
        "perf_snapshot": perf.snapshot(),
    }


def write_report(report: Dict[str, object]) -> Path:
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return REPORT_PATH


@pytest.mark.perf
def test_perf_hotpaths():
    # Checks the targets only: the committed report is the baseline
    # ``bench_smoke.py`` compares with, so a test run leaves it alone.
    benches = build_report()["benches"]
    # The vectorized kernels must actually be faster — by their target
    # factors on the single-process paths (machine-independent).
    assert benches["estimator_grid_search"]["meets_target"], benches
    assert benches["estimator_warm_start"]["meets_target"], benches
    assert benches["estimator_fit_batch"]["meets_target"], benches
    assert benches["estimator_lm_kernel"]["meets_target"], benches
    assert benches["anf_apply"]["meets_target"], benches
    assert benches["checkpoint_save"]["meets_target"], benches
    assert benches["dtw_distance_banded"]["meets_target"], benches
    # The pool bench's target is already scaled to what this host's core
    # count can express (see _parallel_target), so it always asserts.
    assert benches["parallel_stationary_trials"]["meets_target"], benches


def main() -> int:
    report = build_report()
    path = write_report(report)
    for name, b in report["benches"].items():
        print(f"{name}: {b['before_s'] * 1e3:.2f} ms -> "
              f"{b['after_s'] * 1e3:.2f} ms  ({b['speedup']:.1f}x, " + (
                  f"target {b['target_speedup']:.0f}x, "
                  f"{'met' if b['meets_target'] else 'NOT met'})"
                  if "target_speedup" in b else "reported only)"))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
