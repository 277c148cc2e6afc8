"""Open-loop replay of a generated stream into the serving stack.

The driver is single-process and single-threaded. Tick ``k`` is due at
stream time ``(k + 1) * tick_s``; ticks run back to back and each one's
*virtual* emission time is ``max(due_k, emit_{k-1}) + wall_k``, so a slow
tick delays the ticks queued behind it exactly as it would on a live
stream. ``wall_k`` is the tick's CPU time (:data:`clock`) scaled to the
reference host (:mod:`hostspeed`), so the timeline is built after the
pass, once its host speed is known.
Everything the client side does before a tick (building sample objects
or frames) happens outside the timed region; what is timed is the stack's
own work: ingest plus tick on the fleet path, and frame exchange plus
drain on the gateway path.

A fix is an accepted solve, seen from outside as a snapshot whose
``estimate`` object changed. Its latency is its tick's emission time minus
the newest sample of its beacon that the tick delivered; its range error
compares ``|fix|`` with the true beacon-to-observer distance at the first
IMU sample of the solve window (the origin of the fix's frame).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import hostspeed
from repro.durability import CheckpointStore, FleetSupervisor
from repro.fleet import FleetConfig, TrackingFleet
from repro.gateway import GatewayConfig, IngestionGateway, SimulatedClient
from repro.service import ServiceConfig
from repro.service.session import SessionConfig
from repro.sim.faults import FrameFate
from repro.types import ImuSample, RssiSample

from workloads import (IMU_CHUNK, N_CLIENTS, N_SHARDS, TICK_S, WINDOW_S,
                       Stream, Workload)

#: The benchmark's clock. The stack is single-threaded, CPU-bound and does
#: no I/O but checkpoint writes, so the CPU time this process spends is
#: its work; unlike wall time it leaves out time the host gives to other
#: processes. What it leaves out of the stack's work is the wait for the
#: disk inside checkpoint fsyncs.
clock = time.process_time

#: Ticks between durable fleet checkpoints on the gateway path. Sessions
#: solve every other tick, so every checkpoint shares a tick with solves
#: and a quarter of the fixes carry checkpoint cost: enough to move p90.
CHECKPOINT_EVERY = 8

#: Client-side waits that must never fire: no fault the workloads inject
#: needs a timeout, so a fired one means the run timed sleeping.
_NO_TIMEOUT_S = 600.0

_FATES = {(d, r): FrameFate(duplicate=d, reorder=r)
          for d in (False, True) for r in (False, True)}


def fleet_config(w: Workload) -> FleetConfig:
    return FleetConfig(
        n_shards=N_SHARDS,
        service=ServiceConfig(session=SessionConfig(window_s=WINDOW_S),
                              max_sessions=w.sessions_per_shard),
    )


def build_stack(w: Workload, store_dir: str):
    """The full serving stack: ``(fleet, gateway, supervisor, store)``."""
    fleet = TrackingFleet(fleet_config(w))
    store = CheckpointStore(store_dir)
    supervisor = FleetSupervisor(fleet, store,
                                 checkpoint_every=CHECKPOINT_EVERY)
    gateway = IngestionGateway(GatewayConfig(client_timeout_s=None),
                               supervisor)
    return fleet, gateway, supervisor, store


@dataclass
class Fix:
    #: Index of the fix's tick among the timed ticks served.
    slot: int
    beacon: int
    #: Stream time of the newest sample of its beacon the fix's tick
    #: delivered; None when it delivered none.
    newest_t: Optional[float]
    range_err_m: float


@dataclass
class Pass:
    """What one replay of the stream measured (timed ticks only)."""

    #: Per timed tick served: when it was due and its CPU time.
    dues: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    #: Host-speed samples, one taken after each timed tick.
    calib: List[float] = field(default_factory=list)
    fixes: List[Fix] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    offered: int = 0
    shed: int = 0
    stats_before: Dict[str, Any] = field(default_factory=dict)
    stats_after: Dict[str, Any] = field(default_factory=dict)
    gateway_counters: Dict[str, int] = field(default_factory=dict)
    client_retries: int = 0
    queue_peak: int = 0
    #: Digest of the snapshot stream up to and including each tick served.
    digests: List[str] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        """CPU time of the timed ticks, as measured."""
        return float(sum(self.walls))

    @property
    def speed(self) -> float:
        """Factor turning this pass's CPU times into reference-host time."""
        return hostspeed.scale(self.calib)

    @property
    def serve_s(self) -> float:
        """Serving time of the timed ticks on the reference host."""
        return self.speed * self.cpu_s

    def timeline(self) -> Tuple[List[float], List[float], List[float]]:
        """Open-loop queue wait and lag per timed tick, latency per fix."""
        speed, emit = self.speed, -math.inf
        waits, lags, emits = [], [], []
        for due, wall in zip(self.dues, self.walls):
            start = max(due, emit)
            emit = start + speed * wall
            waits.append(start - due)
            lags.append(emit - due)
            emits.append(emit)
        latencies = [emits[f.slot] - f.newest_t for f in self.fixes
                     if f.newest_t is not None]
        return waits, lags, latencies

    @property
    def snapshot_digest(self) -> str:
        return self.digests[-1] if self.digests else ""


def _shed_total(fleet: TrackingFleet, gateway: Optional[IngestionGateway]):
    """Fleet stats, and samples refused or evicted by every shedding layer."""
    stats = fleet.stats()
    total = (stats["shed_samples"] + stats["refused_samples"]
             + sum(s["rss_shed"] for s in stats["per_shard"]))
    if gateway is not None:
        total += sum(q.shed for q in gateway.scan_queues.values())
        total += gateway.imu_queue.shed
    return stats, total


class _Recorder:
    """Per-tick bookkeeping shared by both paths (all of it untimed)."""

    def __init__(self, stream: Stream):
        self.s = stream
        self.w = stream.workload
        self.ids = stream.beacon_ids
        self.out = Pass()
        self._last_est: Dict[str, Any] = {}
        self._digest = hashlib.blake2b(digest_size=16)
        self._imu_t = stream.imu[:, 0]

    def scans(self, k: int) -> List[RssiSample]:
        lo, hi = self.s.scan_lo[k], self.s.scan_lo[k + 1]
        return [RssiSample(t, r, self.ids[b], 37)
                for t, r, b in zip(self.s.scan_t[lo:hi].tolist(),
                                   self.s.scan_rssi[lo:hi].tolist(),
                                   self.s.scan_beacon[lo:hi].tolist())]

    def imu(self, k: int) -> List[ImuSample]:
        rows = self.s.imu[self.s.imu_lo[k]:self.s.imu_lo[k + 1]].tolist()
        return [ImuSample(t, a, g, m) for t, a, g, m in rows]

    def record(self, k: int, wall: float, snaps: Dict[str, Any]) -> None:
        due = (k + 1) * TICK_S
        timed = k >= self.s.warm_ticks
        self._digest.update(repr(sorted(
            (b, _snap_key(snaps[b])) for b in snaps)).encode())
        self.out.digests.append(self._digest.copy().hexdigest())
        if timed:
            self.out.dues.append(due)
            self.out.walls.append(wall)
            self.out.calib.append(hostspeed.sample())
        newest: Optional[Dict[int, float]] = None
        for beacon_id, snap in snaps.items():
            est = snap.estimate
            is_new = est is not None and est is not self._last_est.get(beacon_id)
            self._last_est[beacon_id] = est
            if not (is_new and timed):
                continue
            if newest is None:
                newest = self._newest(k)
            b = int(beacon_id[1:])
            self.out.fixes.append(Fix(len(self.out.walls) - 1, b,
                                      newest.get(b),
                                      self._range_error(b, due, est)))

    def _newest(self, k: int) -> Dict[int, float]:
        lo, hi = self.s.scan_lo[k], self.s.scan_lo[k + 1]
        bs = self.s.scan_beacon[lo:hi][::-1]
        uniq, idx = np.unique(bs, return_index=True)
        return dict(zip(uniq.tolist(),
                        self.s.scan_t[lo:hi][::-1][idx].tolist()))

    def _range_error(self, b: int, due: float, est: Any) -> float:
        i = int(np.searchsorted(self._imu_t, due - WINDOW_S, "left"))
        anchor = self.s.walk.position_at(float(self._imu_t[i]))
        tx, ty = self.s.template_xy[b % self.w.n_templates]
        true_d = math.hypot(tx - anchor.x, ty - anchor.y)
        return abs(math.hypot(est.position.x, est.position.y) - true_d)

    def finish(self) -> Pass:
        return self.out


def _snap_key(s: Any) -> tuple:
    track = None if s.track is None else (
        s.track.time, s.track.position.x, s.track.position.y,
        s.track.velocity.x, s.track.velocity.y, s.track.position_std)
    est = None if s.estimate is None else (s.estimate.position.x,
                                           s.estimate.position.y)
    return (s.t, s.state, s.breaker_state, s.fix_age_s, track, est,
            s.buffered, s.shed)


def _timed_offered(stream: Stream, ticks: int) -> int:
    return int(stream.scan_lo[ticks] - stream.scan_lo[stream.warm_ticks])


def run_fleet(stream: Stream, ticks: int, tracer=None) -> Pass:
    """Replay into a bare ``TrackingFleet``: ingest scans, IMU, tick."""
    rec = _Recorder(stream)
    fleet = TrackingFleet(fleet_config(stream.workload))
    for k in range(ticks):
        if k == stream.warm_ticks:
            rec.out.stats_before, shed0 = _shed_total(fleet, None)
            if tracer is not None:
                tracer.start()
        scans, imu = rec.scans(k), rec.imu(k)
        t = (k + 1) * TICK_S
        t0 = clock()
        try:
            fleet.ingest_scans(scans)
            fleet.ingest_imu(imu)
            snaps = fleet.tick(t)
        except Exception as exc:  # noqa: BLE001 - recorded, fails the run
            rec.out.errors.append(f"tick {k}: {type(exc).__name__}: {exc}")
            continue
        rec.record(k, clock() - t0, snaps)
    if tracer is not None:
        tracer.stop()
    rec.out.stats_after, shed1 = _shed_total(fleet, None)
    rec.out.offered = _timed_offered(stream, ticks)
    rec.out.shed = shed1 - shed0
    return rec.finish()


def _frames(rec: _Recorder, k: int, seqs: List[int]) -> List[list]:
    """One tick's frame schedule per client, with its rolled fates."""
    s, w = rec.s, rec.w
    lo, hi = s.scan_lo[k], s.scan_lo[k + 1]
    rows: Dict[int, list] = {}
    for t, r, b in zip(s.scan_t[lo:hi].tolist(), s.scan_rssi[lo:hi].tolist(),
                       s.scan_beacon[lo:hi].tolist()):
        rows.setdefault(b, []).append([t, r, 37])
    out: List[list] = [[] for _ in range(N_CLIENTS)]

    def push(c: int, frame: Dict[str, Any]) -> None:
        dup, reorder = s.fates[c][seqs[c]]
        frame["seq"] = seqs[c]
        out[c].append((frame, _FATES[(bool(dup), bool(reorder))]))
        seqs[c] += 1

    for b in sorted(rows):
        push(b % N_CLIENTS, {"type": "scan", "beacon": rec.ids[b],
                               "samples": rows[b]})
    imu = s.imu[s.imu_lo[k]:s.imu_lo[k + 1]].tolist()
    for i in range(0, len(imu), IMU_CHUNK):
        push(0, {"type": "imu", "samples": imu[i:i + IMU_CHUNK]})
    return out


def run_gateway(stream: Stream, ticks: int, store_dir: str,
                tracer=None) -> Pass:
    """Replay as frames from simulated clients through the whole edge."""
    return asyncio.run(_run_gateway(stream, ticks, store_dir, tracer))


async def _run_gateway(stream: Stream, ticks: int, store_dir: str,
                       tracer) -> Pass:
    rec = _Recorder(stream)
    w = stream.workload
    fleet, gateway, _supervisor, _store = build_stack(w, store_dir)
    clients = [SimulatedClient(f"c{c:03d}", gateway,
                               ack_timeout_s=_NO_TIMEOUT_S)
               for c in range(N_CLIENTS)]
    seqs = [0] * N_CLIENTS
    counters0: Dict[str, int] = {}
    retries0 = 0
    for k in range(ticks):
        timed = k >= stream.warm_ticks
        if k == stream.warm_ticks:
            rec.out.stats_before, shed0 = _shed_total(fleet, gateway)
            counters0 = dict(gateway.counters)
            retries0 = sum(c.stats.retries for c in clients)
            if tracer is not None:
                tracer.start()
        schedules = _frames(rec, k, seqs)
        t = (k + 1) * TICK_S
        ingest_span = (tracer.span("gateway.ingest_phase")
                       if tracer is not None and timed
                       else contextlib.nullcontext())
        t0 = clock()
        with ingest_span:
            outcomes = await asyncio.gather(
                *(clients[c].run_schedule(sched)
                  for c, sched in enumerate(schedules) if sched),
                return_exceptions=True)
        ingest_s = clock() - t0
        queued = (sum(len(q) for q in gateway.scan_queues.values())
                  + len(gateway.imu_queue))
        t0 = clock()
        try:
            snaps = gateway.tick(t)
        except Exception as exc:  # noqa: BLE001 - recorded, fails the run
            rec.out.errors.append(f"tick {k}: {type(exc).__name__}: {exc}")
            continue
        wall = ingest_s + clock() - t0
        rec.out.errors.extend(
            f"tick {k} client: {type(o).__name__}: {o}"
            for o in outcomes if isinstance(o, BaseException))
        rec.record(k, wall, snaps)
        if timed:
            rec.out.queue_peak = max(rec.out.queue_peak, queued)
    if tracer is not None:
        tracer.stop()
    rec.out.stats_after, shed1 = _shed_total(fleet, gateway)
    rec.out.gateway_counters = {
        name: n - counters0.get(name, 0)
        for name, n in gateway.counters.items()}
    rec.out.client_retries = sum(c.stats.retries for c in clients) - retries0
    for client in clients:
        await client.close()
    await gateway.drain_clients()
    rec.out.errors.extend(f"gateway task: {e}" for e in gateway.task_errors)
    rec.out.offered = _timed_offered(stream, ticks)
    rec.out.shed = shed1 - shed0
    return rec.finish()


def replay(stream: Stream, store_dir: str, tracer=None,
           ticks: Optional[int] = None) -> Pass:
    """Serve the first ``ticks`` ticks of ``stream`` (all by default).

    ``ticks`` must reach past the warm-up, where measurement starts.
    """
    ticks = stream.n_ticks if ticks is None else min(ticks, stream.n_ticks)
    if ticks <= stream.warm_ticks:
        raise ValueError(f"{ticks} ticks end inside the warm-up")
    if stream.workload.path == "gateway":
        return run_gateway(stream, ticks, store_dir, tracer)
    return run_fleet(stream, ticks, tracer)
