"""Serving benchmark: open-loop sample-to-fix latency, fixes/s, range error.

Run from the repository root::

    python3 perfbench/run.py --workload steady_los --seed 1 --seconds 10 --trace 0

``--trace 0`` replays the workload once and prints the end-to-end metrics.
``--trace 1`` replays the same inputs twice, untraced then traced, and
prints the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; every line before it is a ``#`` report line. See
``perfbench/README.md`` for the workloads and the layer-to-metric map.
"""

import os

# One process on one core: BLAS threads would make timings and float
# reductions depend on the host. Must be set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch state inside the checkout (store dirs, repeatability record).
STATE = ROOT / ".perfbench"

#: Fresh-interpreter set-ups per run; the median is reported.
SETUP_RUNS = 5
#: Timed ticks the repeatability probe replays after the warm-up.
PROBE_TICKS = 10
#: Host-speed samples taken on each side of a set-up.
SETUP_CALIB = 8
#: Latency samples a run must yield so its p90 has ten samples beyond it.
MIN_LATENCY_SAMPLES = 100
#: A median range error beyond this means the fixes are wrong, not slow.
MAX_RANGE_ERROR_P50_M = 5.0
#: Share of serving wall the top-level spans must cover when traced.
STAGE_BUDGET = 0.95


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _die(f"program source not found under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _die(f"imported repro from {repro.__file__}, not this checkout")


def _source_digest() -> str:
    """Identity of the code under test and of the benchmark itself."""
    h = hashlib.blake2b(digest_size=16)
    paths = [*(SRC / "repro").rglob("*.py"), *BENCH.glob("*.py")]
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup_cpu_s(workload: str) -> tuple:
    """CPU times of fresh interpreters bringing the stack up, and the
    host-speed samples taken between them.

    A few samples beside one set-up estimate the host speed poorly, so
    ``main`` scales the median set-up by all of them together with the
    serving pass's samples, taken seconds later.
    """
    import hostspeed

    times, calib = [], []
    for _ in range(SETUP_RUNS):
        store = tempfile.mkdtemp(dir=STATE)
        try:
            calib += [hostspeed.sample() for _ in range(SETUP_CALIB)]
            cpu0 = _child_cpu_s()
            subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                            str(ROOT), workload, store], check=True)
            times.append(_child_cpu_s() - cpu0)
        finally:
            shutil.rmtree(store, ignore_errors=True)
    return times, calib


def _probe_replay(workload: str, seed: int, seconds: float,
                  ticks: int) -> dict:
    """Input and snapshot digests of ``ticks`` ticks replayed elsewhere."""
    store = tempfile.mkdtemp(dir=STATE)
    try:
        out = subprocess.run(
            [sys.executable, str(BENCH / "replay_probe.py"), str(ROOT),
             workload, str(seed), repr(seconds), str(ticks), store],
            check=True, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED="random"))
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return json.loads(out.stdout.splitlines()[-1])


def _declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _seen_before(key: str, digest: str) -> bool:
    """False if an earlier run of this checkout under ``key`` differed."""
    path = STATE / "snapshot_digests.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    prior = seen.setdefault(key, digest)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return prior == digest


def _replay(stream, tracer=None):
    from serve import replay

    store = tempfile.mkdtemp(dir=STATE)
    gc.collect()
    try:
        return replay(stream, store, tracer)
    finally:
        shutil.rmtree(store, ignore_errors=True)


def main() -> None:
    args = _args()
    _import_program()
    import numpy as np
    import scipy

    from workloads import TICK_S, WORKLOADS, generate

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    STATE.mkdir(exist_ok=True)

    def q(values, p):
        return float(np.percentile(values, 100 * p)) if values else float("nan")

    setup_cpu, setup_calib = ([], []) if args.trace else _setup_cpu_s(w.name)
    stream = generate(w, args.seed, args.seconds)
    input_digest = stream.digest()
    pins = json.loads((BENCH / "inputs.json").read_text())
    ref = pins["reference"]
    ref_ok = (generate(w, ref["seed"], ref["seconds"]).digest()
              == ref["digests"][w.name])
    pinned = pins["runs"].get(f"{w.name}:{args.seed}:{args.seconds:g}")

    run = _replay(stream)
    probe_ticks = min(stream.warm_ticks + PROBE_TICKS, stream.n_ticks)
    probe = _probe_replay(w.name, args.seed, args.seconds, probe_ticks)
    traced = tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = _replay(stream, tracer)
        finally:
            tracer.uninstall()

    _waits, lags, lat = run.timeline()
    err = [f.range_err_m for f in run.fixes]
    n = len(lags)
    growth = (statistics.fmean(lags[3 * n // 4:])
              - statistics.fmean(lags[n // 2:3 * n // 4]))
    checks = {
        "inputs_pinned": ref_ok and pinned in (None, input_digest),
        "no_errors": not run.errors,
        "repeatable": (
            probe["input_digest"] == input_digest and not probe["errors"]
            and run.digests[probe_ticks - 1:probe_ticks]
            == [probe["snapshot_digest"]]
            and _seen_before(
                f"{_source_digest()}:{w.name}:{args.seed}:{args.seconds!r}",
                run.snapshot_digest)),
        "keeps_up": growth <= 0.5 * TICK_S,
        "enough_fixes": len(lat) >= MIN_LATENCY_SAMPLES,
        "accurate": q(err, 0.5) <= MAX_RANGE_ERROR_P50_M,
    }
    if w.path == "fleet":
        checks["spare_capacity"] = run.shed == 0
    else:
        checks["no_client_waits"] = (
            run.client_retries == 0
            and run.gateway_counters.get("client_timeout", 0) == 0)

    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "input_digest": input_digest, "snapshot_digest": run.snapshot_digest,
        "timed_ticks": stream.timed_ticks, "fixes": len(run.fixes),
        "latency_samples": len(lat), "backlog_growth_s": growth,
        "serve_cpu_s": run.cpu_s, "host_speed": run.speed,
        "offered": run.offered, "shed": run.shed,
    }

    if args.trace:
        from tracing import cold_breakdown, layer_metrics

        checks["trace_identical"] = (
            traced.snapshot_digest == run.snapshot_digest
            and not traced.errors)
        covered = tracer.top_s / traced.cpu_s
        checks["stage_budget"] = covered >= STAGE_BUDGET
        values = layer_metrics(tracer, traced, run, q)
        print("# cold_solves " + json.dumps(cold_breakdown(tracer)))
        print("# stage_budget " + json.dumps({
            "covered": covered,
            "spans": {name: {"calls": tracer.calls[name],
                             "total_s": tracer.total_s[name],
                             "self_s": tracer.self_s[name]}
                      for name in sorted(tracer.calls)}}))
    else:
        import hostspeed

        serve = run.serve_s
        values = {
            "setup_s": statistics.median(setup_cpu) * hostspeed.scale(
                setup_calib + run.calib),
            "fixes_per_s": len(run.fixes) / serve,
            "stream_busy_ratio": serve / (stream.timed_ticks * TICK_S),
            "fix_latency_p50_ms": 1e3 * q(lat, 0.5),
            "fix_latency_p90_ms": 1e3 * q(lat, 0.9),
            "fix_range_error_p50_m": q(err, 0.5),
            "fix_range_error_p90_m": q(err, 0.9),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        _die(f"metrics out of step with BENCHMARK.json: "
             f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}

    report["checks"] = checks
    print("# run " + json.dumps(report))
    for error in run.errors[:10]:
        print(f"perfbench: {error}", file=sys.stderr)
    failed_checks = [name for name, ok in checks.items() if not ok]
    if failed_checks:
        print(f"perfbench: failed checks: {', '.join(failed_checks)}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": stream.n_ticks,
        "failed": min(len(run.errors), stream.n_ticks),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
