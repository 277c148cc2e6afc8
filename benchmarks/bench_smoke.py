"""CI benchmark smoke gate: catch hot-path perf regressions early.

Re-runs the single-process hot-path benches from
:mod:`bench_perf_hotpaths` and compares each measured speedup — the median
before/after ratio of its alternating runs — against the baseline recorded
in the committed ``BENCH_perf.json``: a bench whose speedup falls below
``baseline / REGRESSION_FACTOR`` fails the gate. The
speedups are before/after *ratios* on identical workloads, so they are
largely machine-independent — unlike raw wall-clock times, which CI
hardware churn would make useless as baselines.

The multi-process pool sweep is deliberately excluded: its ratio is a
function of the host's core count, not of the code (the full bench already
scales its own target by ``effective_cpus``). Run directly
(``python benchmarks/bench_smoke.py``) or via pytest
(``pytest benchmarks/bench_smoke.py -m perf``).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict

import pytest

from bench_perf_hotpaths import (
    REPORT_PATH,
    bench_anf_apply,
    bench_checkpoint_save,
    bench_dtw,
    bench_estimator,
    bench_fit_batch,
    bench_lm_kernel,
    bench_warm_start,
)

#: A bench may be up to this factor slower (in speedup ratio) than the
#: committed baseline before the smoke gate fails.
REGRESSION_FACTOR = 2.0

#: The machine-independent (single-process) benches the gate covers.
SMOKE_BENCHES: Dict[str, Callable[[], Dict[str, object]]] = {
    "estimator_grid_search": bench_estimator,
    "estimator_warm_start": bench_warm_start,
    "estimator_fit_batch": bench_fit_batch,
    "estimator_lm_kernel": bench_lm_kernel,
    "anf_apply": bench_anf_apply,
    "checkpoint_save": bench_checkpoint_save,
    "dtw_distance_banded": bench_dtw,
}


def load_baselines() -> Dict[str, float]:
    """Baseline speedup per bench from the committed ``BENCH_perf.json``."""
    report = json.loads(REPORT_PATH.read_text())
    return {
        name: float(bench["speedup"])
        for name, bench in report["benches"].items()
        if name in SMOKE_BENCHES
    }


def run_smoke() -> Dict[str, Dict[str, object]]:
    """Run every smoke bench and attach its regression verdict."""
    baselines = load_baselines()
    out: Dict[str, Dict[str, object]] = {}
    for name, bench in SMOKE_BENCHES.items():
        result = bench()
        baseline = baselines.get(name)
        floor = None if baseline is None else baseline / REGRESSION_FACTOR
        result["baseline_speedup"] = baseline
        result["regression_floor"] = floor
        result["regressed"] = (floor is not None
                               and float(result["speedup"]) < floor)
        out[name] = result
    return out


@pytest.mark.perf
def test_bench_smoke():
    results = run_smoke()
    # Every bench must still hold its own absolute target *and* stay within
    # REGRESSION_FACTOR of the committed baseline ratio.
    for name, r in results.items():
        assert r["meets_target"], (name, r)
        assert not r["regressed"], (name, r)


def main() -> int:
    results = run_smoke()
    failed = False
    print(f"bench smoke gate on {os.cpu_count() or 1} CPU(s): speedup must "
          f"stay within {REGRESSION_FACTOR:.0f}x of the committed baseline")
    for name, r in results.items():
        baseline = r["baseline_speedup"]
        base_txt = "n/a" if baseline is None else f"{baseline:.1f}x"
        verdict = "REGRESSED" if r["regressed"] else (
            "ok" if r["meets_target"] else "BELOW TARGET")
        if r["regressed"] or not r["meets_target"]:
            failed = True
        print(f"  {name}: {r['speedup']:.1f}x "
              f"(baseline {base_txt}, target {r['target_speedup']:.0f}x) "
              f"{verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
