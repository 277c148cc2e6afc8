"""Outside-in tracing: spans around each layer's public entry points.

:class:`Tracer` replaces selected functions and methods of the serving
stack with timing wrappers for the duration of a traced pass, then puts
the originals back. Spans nest through a stack of child-time
accumulators, so a span's *self* time is its duration minus the time its
wrapped children took. Aggregates are kept in memory; nothing is written
until the run ends. Nothing inside ``src/`` is modified.

:func:`layer_metrics` turns a traced pass into the benchmark's per-layer
metrics, including the cold-solve breakdown taken at the ``fit_batch``
boundary: each request is a warm accept, a first fix (no warm state), a
warm state the estimator could not use (cold result, no rejection event),
or a warm rejection by the reason its ``solver.warm_rejected`` event
gives.
"""

from __future__ import annotations

import contextlib
import functools
import re
import statistics
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.core import anf, pipeline, tracking
from repro.durability import store, supervisor
from repro.fleet import fleet, worker
from repro.gateway import gateway
from repro.motion import deadreckoning
from repro.service import service, session

from serve import clock

#: Warm-rejection reasons reported as metrics even when they never fire.
REJECT_REASONS = ("residual_blow_up", "diverged")


def reason_key(reason: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", reason.lower()).strip("_")


class _EventSink:
    """Counts every obs event; keeps the warm-rejection ones."""

    def __init__(self) -> None:
        self.total = 0
        self.rejected: List[Dict[str, Any]] = []

    def write(self, event: Any) -> None:
        self.total += 1
        if event.name == "solver.warm_rejected":
            self.rejected.append(event.fields)


class Tracer:
    """Span aggregation plus the per-call hooks the layer metrics need."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Time inside spans opened with no span around them.
        self.top_s = 0.0
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.shard_busy_s: Dict[int, float] = defaultdict(float)
        self.events = _EventSink()
        self._stack: List[List[float]] = []
        self._patches: List[tuple] = []

    # -- span machinery -----------------------------------------------------

    def _close(self, name: str, dt: float, child: float) -> None:
        self.calls[name] += 1
        self.total_s[name] += dt
        self.self_s[name] += dt - child
        if self._stack:
            self._stack[-1][0] += dt
        else:
            self.top_s += dt

    @contextlib.contextmanager
    def span(self, name: str):
        acc = [0.0]
        self._stack.append(acc)
        t0 = clock()
        try:
            yield
        finally:
            dt = clock() - t0
            self._stack.pop()
            self._close(name, dt, acc[0])

    def _patch(self, owner: Any, attr: str, name: str,
               after: Optional[Callable[[tuple, Any, float], None]] = None
               ) -> None:
        orig = vars(owner)[attr]
        tracer = self

        @functools.wraps(orig)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return orig(*args, **kwargs)
            acc = [0.0]
            tracer._stack.append(acc)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._stack.pop()
                tracer._close(name, dt, acc[0])
            if after is not None:
                after(args, out, dt)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def _count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls without timing (for coroutine functions)."""
        orig = vars(owner)[attr]
        tracer = self

        @functools.wraps(orig)
        def counted(*args: Any, **kwargs: Any) -> Any:
            if tracer.active:
                tracer.counts[name] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, orig))

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> None:
        p = self._patch
        p(fleet.TrackingFleet, "ingest_scans", "fleet.ingest",
          after=self._on_fleet_ingest)
        p(fleet.TrackingFleet, "ingest_imu", "fleet.ingest")
        p(fleet.TrackingFleet, "tick", "fleet.tick")
        p(worker.ShardWorker, "tick", "fleet.shard_tick",
          after=self._on_shard_tick)
        p(service.TrackingService, "tick_batch", "service.tick_batch")
        p(session.TrackingSession, "begin_step", "service.begin_step")
        p(pipeline.LocBLE, "prepare_estimate", "pipeline.prepare",
          after=self._on_prepare)
        p(pipeline, "sanitize_trace", "pipeline.sanitize")
        p(deadreckoning.MotionTracker, "track", "pipeline.dead_reckoning")
        p(anf.AdaptiveNoiseFilter, "apply", "pipeline.anf")
        p(service, "fit_batch", "estimator.fit_batch",
          after=self._on_fit_batch)
        p(session.TrackingSession, "resolve_solve", "service.resolve")
        p(pipeline.LocBLE, "complete_estimate", "pipeline.complete")
        p(tracking.BeaconTracker, "update", "tracking.update")
        p(tracking.BeaconTracker, "predict", "tracking.predict")
        p(session.TrackingSession, "finish_step", "service.finish_step")
        p(gateway.IngestionGateway, "tick", "gateway.drain")
        self._count_calls(gateway.IngestionGateway, "_handle_frame",
                          "gateway.frames_decoded")
        p(supervisor.FleetSupervisor, "ingest_scans", "supervisor.ingest")
        p(supervisor.FleetSupervisor, "ingest_imu", "supervisor.ingest")
        p(supervisor.FleetSupervisor, "tick", "supervisor.tick")
        p(supervisor.FleetSupervisor, "checkpoint_now",
          "durability.checkpoint", after=self._on_checkpoint)
        p(store.CheckpointStore, "save", "durability.store_save",
          after=self._on_store_save)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def start(self) -> None:
        obs.add_sink(self.events)
        self.active = True

    def stop(self) -> None:
        self.active = False
        obs.remove_sink(self.events)

    # -- hooks (run after the span closed) ------------------------------------

    def _on_fleet_ingest(self, args: tuple, taken: Any, dt: float) -> None:
        self.counts["fleet.samples_admitted"] += int(taken)

    def _on_shard_tick(self, args: tuple, out: Any, dt: float) -> None:
        self.shard_busy_s[args[0].shard_id] += dt

    def _on_prepare(self, args: tuple, out: Any, dt: float) -> None:
        self.samples["pipeline.rows"].append(len(out.ctx.matched_rss))

    def _on_checkpoint(self, args: tuple, saved: Any, dt: float) -> None:
        if saved:
            self.counts["durability.checkpoints"] += 1
            self.samples["durability.checkpoint_s"].append(dt)

    def _on_store_save(self, args: tuple, info: Any, dt: float) -> None:
        self.samples["durability.store_save_s"].append(dt)
        self.samples["durability.bytes"].append(info.n_bytes)

    def _on_fit_batch(self, args: tuple, results: Any, dt: float) -> None:
        requests = args[0]
        rejected: Dict[tuple, List[str]] = defaultdict(list)
        for f in self.events.rejected:
            rejected[(f["warm_n"], f["warm_rmse"], f["n_rows"])].append(
                f["reason"])
        self.events.rejected = []
        c = self.counts
        c["estimator.requests"] += len(requests)
        for req, res in zip(requests, results):
            if req.warm is not None:
                c["estimator.with_warm"] += 1
            if isinstance(res, BaseException):
                c["estimator.solve_errors"] += 1
            elif res.warm_started:
                c["estimator.warm_accepted"] += 1
            elif req.warm is None:
                c["estimator.cold_first_fix"] += 1
            else:
                reasons = rejected.get(
                    (req.warm.n, req.warm.rss_rmse, len(req.p)))
                if reasons:
                    c["estimator.cold_rejected." + reason_key(reasons.pop())] += 1
                else:
                    c["estimator.cold_warm_unusable"] += 1


def _p50(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _delta(before: Dict[str, Any], after: Dict[str, Any], name: str) -> int:
    return int(after["counters"].get(name, 0)
               - before["counters"].get(name, 0))


def layer_metrics(tr: Tracer, traced: Any, untraced: Any,
                  quantile: Callable[[List[float], float], float]
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``traced``) of a workload.

    Times are scaled to the reference host like the end-to-end ones.
    """
    c, speed = tr.counts, traced.speed
    tot = defaultdict(float, {n: speed * t for n, t in tr.total_s.items()})
    own = defaultdict(float, {n: speed * t for n, t in tr.self_s.items()})
    samples = {name: [speed * t for t in tr.samples[name]]
               for name in ("durability.checkpoint_s",
                            "durability.store_save_s")}
    before, after = traced.stats_before, traced.stats_after
    n_fixes = len(traced.fixes)
    attempted = _delta(before, after, "solves_attempted")
    busy = list(tr.shard_busy_s.values())
    m: Dict[str, float] = {
        "estimator.fit_batch_s": tot["estimator.fit_batch"],
        "estimator.fit_batch_calls": tr.calls["estimator.fit_batch"],
        "estimator.requests_per_call": (
            c["estimator.requests"] / tr.calls["estimator.fit_batch"]
            if tr.calls["estimator.fit_batch"] else 0.0),
        "estimator.warm_accepted": c["estimator.warm_accepted"],
        "estimator.cold_first_fix": c["estimator.cold_first_fix"],
        "estimator.cold_warm_unusable": c["estimator.cold_warm_unusable"],
    }
    for reason in REJECT_REASONS:
        key = "estimator.cold_rejected." + reason
        m[key] = c[key]
    m.update({
        "estimator.warm_accept_ratio": (
            c["estimator.warm_accepted"] / c["estimator.with_warm"]
            if c["estimator.with_warm"] else 0.0),
        "estimator.solve_errors": c["estimator.solve_errors"],
        "pipeline.prepare_self_s": own["pipeline.prepare"],
        "pipeline.sanitize_s": tot["pipeline.sanitize"],
        "pipeline.dead_reckoning_s": tot["pipeline.dead_reckoning"],
        "pipeline.anf_s": tot["pipeline.anf"],
        "pipeline.complete_s": tot["pipeline.complete"],
        "pipeline.rows_per_solve_p50": _p50(tr.samples["pipeline.rows"]),
        "service.tick_batch_self_s": own["service.tick_batch"],
        "service.begin_step_self_s": own["service.begin_step"],
        "service.resolve_self_s": own["service.resolve"],
        "service.finish_step_s": tot["service.finish_step"],
        "service.solves_attempted": attempted,
        "service.solves_skipped_nodata": _delta(before, after,
                                                "solves_skipped_nodata"),
        "service.solves_shed": _delta(before, after, "solves_shed"),
        "service.solves_failed": (
            _delta(before, after, "solves_degenerate")
            + _delta(before, after, "solves_transient_failures")),
        "service.rss_shed": (
            sum(s["rss_shed"] for s in after["per_shard"])
            - sum(s["rss_shed"] for s in before["per_shard"])),
        "tracking.update_s": tot["tracking.update"],
        "tracking.predict_s": tot["tracking.predict"],
        "fleet.ingest_s": tot["fleet.ingest"],
        "fleet.samples_admitted": c["fleet.samples_admitted"],
        "fleet.samples_refused": (
            after["shed_samples"] + after["refused_samples"]
            - before["shed_samples"] - before["refused_samples"]),
        "fleet.shard_busy_skew": (
            max(busy) / (sum(busy) / len(busy)) if busy and sum(busy) else 0.0),
        "gateway.ingest_phase_s": tot["gateway.ingest_phase"],
        "gateway.drain_self_s": own["gateway.drain"],
        "gateway.frames_decoded": c["gateway.frames_decoded"],
        "gateway.frames_duplicate": traced.gateway_counters.get(
            "frame_duplicate", 0),
        "gateway.frames_reordered": traced.gateway_counters.get(
            "frame_reordered", 0),
        "gateway.queue_peak": traced.queue_peak,
        "gateway.client_retries": traced.client_retries,
        "durability.checkpoints": c["durability.checkpoints"],
        "durability.checkpoint_ms_p50": 1e3 * _p50(
            samples["durability.checkpoint_s"]),
        "durability.checkpoint_bytes": _p50(tr.samples["durability.bytes"]),
        "durability.store_save_ms_p50": 1e3 * _p50(
            samples["durability.store_save_s"]),
        "obs.events_total": tr.events.total,
        "obs.events_per_fix": tr.events.total / n_fixes if n_fixes else 0.0,
        "driver.queue_wait_ms_p90": 1e3 * quantile(traced.timeline()[0], 0.9),
        "trace.unaccounted_share": 1.0 - tr.top_s / traced.cpu_s,
        "trace.overhead_share": traced.serve_s / untraced.serve_s - 1.0,
        "solve_fail_ratio": ((attempted - n_fixes) / attempted
                             if attempted else 0.0),
        "sample_shed_ratio": (traced.shed / traced.offered
                              if traced.offered else 0.0),
    })
    return {k: float(v) for k, v in m.items()}


def cold_breakdown(tr: Tracer) -> Dict[str, int]:
    """Every fit_batch outcome class seen, rejection reasons included."""
    return {k.split(".", 1)[1]: v for k, v in sorted(tr.counts.items())
            if k.startswith(("estimator.warm_accepted", "estimator.cold_",
                             "estimator.solve_errors"))}
