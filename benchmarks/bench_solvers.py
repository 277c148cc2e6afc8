"""Solver accuracy and cost on the Table-1 scenarios.

Runs the measurement sessions (all nine Table-1 environments, several
seeds each) through :class:`~repro.core.pipeline.LocBLE` in repair mode —
the paper's elliptical regression, the one solver — and writes
``BENCH_solvers.json`` at the repo root with:

* **accuracy**: median / mean / p90 location error across all scenarios
  and seeds, plus the per-scenario medians;
* **cost**: median and p90 wall-clock time per full pipeline estimate
  (everything from sanitization through the solve);
* **robustness bookkeeping**: refusals (typed) and untyped errors (must
  be zero).

Run directly (``python benchmarks/bench_solvers.py``), as the CI gate
(``python benchmarks/bench_solvers.py --smoke`` — one scenario, asserts
the solver estimates with zero untyped errors, does not rewrite the
committed report), as the staleness check (``--check`` — the full grid,
about a second; fails on an untyped error or on a median or p90 error more
than 2% from the committed report, which it does not rewrite), or via
pytest (``pytest benchmarks/bench_solvers.py -m solvers``).
EXPERIMENTS.md summarizes the committed numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro.core.pipeline import LocBLE
from repro.errors import ReproError
from repro.world.scenarios import scenario

sys.path.insert(0, str(Path(__file__).resolve().parent))
from helpers import DEFAULT_LEGS, measure_once  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]
REPORT_PATH = REPO_ROOT / "BENCH_solvers.json"

SCENARIOS = tuple(range(1, 10))
SEEDS = tuple(range(6))

#: ``--check`` fails when the median or p90 error is further than this
#: share from the committed report's.
CHECK_TOLERANCE = 0.02


def run_solver(
    scenarios: Sequence[int] = SCENARIOS,
    seeds: Sequence[int] = SEEDS,
) -> Dict[str, object]:
    """Accuracy and per-estimate cost of the solver over the grid."""
    errors: List[float] = []
    times_ms: List[float] = []
    per_scenario: Dict[str, float] = {}
    refused = 0
    untyped = 0
    for idx in scenarios:
        sc = scenario(idx)
        sc_errors: List[float] = []
        for seed in seeds:
            rec, _ = measure_once(sc, seed)
            pipeline = LocBLE(sanitize="repair")
            t0 = time.perf_counter()
            try:
                est = pipeline.estimate(
                    rec.rssi_traces["target"], rec.observer_imu.trace)
            except ReproError:
                refused += 1
                continue
            except Exception:  # noqa: BLE001 - the bookkeeping the bench exists for
                untyped += 1
                continue
            times_ms.append(1e3 * (time.perf_counter() - t0))
            err = est.error_to(rec.true_position_in_frame("target"))
            if np.isfinite(err):
                errors.append(float(err))
                sc_errors.append(float(err))
        if sc_errors:
            per_scenario[f"scenario_{idx}"] = float(np.median(sc_errors))
    return {
        "n_trials": len(list(scenarios)) * len(list(seeds)),
        "n_estimates": len(errors),
        "refused": refused,
        "untyped_errors": untyped,
        "error_median_m": float(np.median(errors)) if errors else None,
        "error_mean_m": float(np.mean(errors)) if errors else None,
        "error_p90_m": float(np.percentile(errors, 90)) if errors else None,
        "per_scenario_median_m": per_scenario,
        "solve_ms_median": float(np.median(times_ms)) if times_ms else None,
        "solve_ms_p90": float(np.percentile(times_ms, 90)) if times_ms else None,
    }


def run_full() -> Dict[str, object]:
    return {
        "description": (
            "Accuracy and cost of the elliptical regression on the Table-1 "
            "stationary scenarios."
        ),
        "python": platform.python_version(),
        "config": {
            "scenarios": list(SCENARIOS),
            "seeds": list(SEEDS),
            "legs": list(DEFAULT_LEGS),
            "sanitize": "repair",
        },
        "elliptical": run_solver(),
    }


def run_smoke() -> Dict[str, object]:
    """The CI gate: one scenario, two seeds; the solver must estimate with
    zero untyped errors. Small enough for a pull-request loop."""
    return run_solver(scenarios=(1,), seeds=(0, 1))


def _ok(row: Dict[str, object]) -> bool:
    return row["untyped_errors"] == 0 and row["n_estimates"] > 0


def check_report(report: Dict[str, object],
                 committed: Dict[str, object]) -> List[str]:
    """Why a fresh full run disagrees with the committed report (empty
    when it agrees): another grid, an untyped error, or a median or p90
    error more than :data:`CHECK_TOLERANCE` away."""
    if report["config"] != committed["config"]:
        return [f"config {report['config']} != committed "
                f"{committed['config']}"]
    row, want = report["elliptical"], committed["elliptical"]
    problems = [] if _ok(row) else [
        f"{row['untyped_errors']} untyped errors, "
        f"{row['n_estimates']} estimates"]
    for key in ("error_median_m", "error_p90_m"):
        got, ref = row[key], want[key]
        if got is None or abs(got - ref) > CHECK_TOLERANCE * ref:
            problems.append(f"{key} {got} vs committed {ref:.4f} "
                            f"(tolerance {CHECK_TOLERANCE:.0%})")
    return problems


# -- pytest entry point (excluded from tier-1 via the solvers marker) ---------


@pytest.mark.solvers
def test_bench_solvers_smoke():
    row = run_smoke()
    assert _ok(row), row
    assert row["error_median_m"] < 6.0, row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI gate: the solver estimates, zero "
                             "untyped errors; does not rewrite "
                             "BENCH_solvers.json")
    parser.add_argument("--check", action="store_true",
                        help="run the full grid and fail when it disagrees "
                             "with the committed BENCH_solvers.json; does "
                             "not rewrite it")
    args = parser.parse_args(argv)

    if args.smoke:
        row = run_smoke()
        print(json.dumps(row, indent=2))
        ok = _ok(row)
        print("smoke:", "OK" if ok else "FAILED")
        return 0 if ok else 1

    report = run_full()
    if args.check:
        problems = check_report(report, json.loads(REPORT_PATH.read_text()))
        for problem in problems:
            print(problem)
        print("check:", "FAILED" if problems else "OK")
        return 1 if problems else 0
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    row = report["elliptical"]
    print(f"{'median':>7s} {'mean':>6s} {'p90':>6s} "
          f"{'ms/solve':>9s} {'refused':>7s} {'untyped':>7s}")
    print(f"{row['error_median_m']:7.2f} {row['error_mean_m']:6.2f} "
          f"{row['error_p90_m']:6.2f} {row['solve_ms_median']:9.1f} "
          f"{row['refused']:7d} {row['untyped_errors']:7d}")
    print(f"wrote {REPORT_PATH}")
    return 0 if _ok(row) else 1


if __name__ == "__main__":
    sys.exit(main())
