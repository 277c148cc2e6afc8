"""Gateway soak: concurrent hostile clients, one deterministic spine.

This harness closes the loop the issue demands: a
:class:`~repro.sim.load.LoadConfig` workload is partitioned across
``n_clients`` :class:`~repro.gateway.client.SimulatedClient`\\ s, every
outbound frame gets a seeded :class:`~repro.sim.faults.FrameFate` from a
:class:`~repro.sim.faults.TransportFaultModel`, and the whole stream is
pushed through a live :class:`~repro.gateway.IngestionGateway` tick by
tick — clients misbehaving concurrently *within* a tick, the gateway
draining deterministically *at* the tick.

The acceptance contract is measured, not asserted by hope:

* **zero untyped exceptions** — anything a client or serve task leaks
  outside ``DataQualityError``/``ConfigurationError`` (even another
  ``ReproError``) lands in ``errors`` and fails the run;
* **signal parity** — every signal's ``n``-weighted event volume over
  the run must equal its perf counter delta
  (:class:`repro.sim.harness.Audit`);
* **record→replay bit-identity** — a recorded run is always replayed
  through a fresh gateway+fleet and each tick's snapshot digest must
  match both the trace and the live run.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, DataQualityError
from repro.fleet import FleetConfig, TrackingFleet
from repro.gateway.client import SimulatedClient
from repro.gateway.gateway import GatewayConfig, IngestionGateway
from repro.gateway.trace import (
    ReplayResult,
    TraceWriter,
    replay,
    snapshot_digest,
    trace_meta,
)
from repro.sim.faults import FrameFate, TransportFaultModel
from repro.sim.harness import Audit, ErrorLedger, digest_mismatches
from repro.sim.load import LoadConfig, generate_load

__all__ = ["GatewaySoakConfig", "GatewaySoakResult", "run_gateway_soak"]

#: Exception types the edge is *allowed* to surface to the driver.
_TYPED = (DataQualityError, ConfigurationError)

#: One client's schedule for one tick: ``[(frame, fate), ...]``.
_TickSchedule = List[Tuple[Dict[str, Any], FrameFate]]


@dataclass(frozen=True)
class GatewaySoakConfig:
    """One gateway soak run: workload, fault matrix, topology, recording."""

    load: LoadConfig = field(default_factory=lambda: LoadConfig(
        duration_s=20.0, n_beacons=8, template_beacons=4, rate_hz=4.0))
    transport: TransportFaultModel = field(
        default_factory=TransportFaultModel)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    n_clients: int = 4
    seed: int = 0
    #: IMU samples bundled per imu frame (client 0 carries the IMU feed).
    imu_chunk: int = 64
    #: Record the committed ticks here; a recorded run is then replayed
    #: and gated on per-tick digest identity.
    record_path: Optional[str] = None
    ack_timeout_s: float = 0.1
    max_attempts: int = 4
    #: Wall-sleep multiplier on client backoff (keeps soaks fast).
    sleep_scale: float = 0.001

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ConfigurationError("n_clients must be >= 1")
        if self.imu_chunk < 1:
            raise ConfigurationError("imu_chunk must be >= 1")


@dataclass
class GatewaySoakResult:
    """Everything the acceptance gate needs, in one report."""

    ticks: int = 0
    offered_samples: int = 0
    #: Samples the gateway acked into queues (sum of client ``taken``).
    delivered_samples: int = 0
    fleet_sessions: int = 0
    queue_shed: int = 0
    gateway_counters: Dict[str, int] = field(default_factory=dict)
    client_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Signals whose event volume disagreed with their perf counter delta
    #: (must be empty).
    parity_failures: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    untyped_errors: int = 0
    #: Per-tick live snapshot digests (the replay comparison baseline).
    tick_digests: List[str] = field(default_factory=list)
    trace_path: Optional[str] = None
    replay_result: Optional[ReplayResult] = None

    @property
    def passed(self) -> bool:
        """Zero untyped leaks, full parity, and (if recorded) bit-identity."""
        replay_ok = (self.replay_result is None
                     or self.replay_result.identical)
        return (self.untyped_errors == 0 and not self.parity_failures
                and replay_ok)

    def summary(self) -> Dict[str, Any]:
        return {
            "ticks": self.ticks,
            "offered_samples": self.offered_samples,
            "delivered_samples": self.delivered_samples,
            "fleet_sessions": self.fleet_sessions,
            "queue_shed": self.queue_shed,
            "gateway_counters": dict(sorted(self.gateway_counters.items())),
            "client_stats": self.client_stats,
            "errors": len(self.errors),
            "untyped_errors": self.untyped_errors,
            "parity_failures": list(self.parity_failures),
            "trace_path": self.trace_path,
            "replay_identical": (None if self.replay_result is None
                                 else self.replay_result.identical),
            "replay_mismatches": (None if self.replay_result is None
                                  else len(self.replay_result.mismatches)),
            "passed": self.passed,
        }


def _build_schedules(
    config: GatewaySoakConfig,
) -> Tuple[List[float], List[List[_TickSchedule]], int]:
    """Per-tick, per-client frame schedules with seeded fates.

    Beacons are assigned to clients round-robin over the sorted beacon
    universe; client 0 additionally carries the shared IMU feed. Frame
    seqs are per client, monotone across the whole run. Returns
    ``(tick_times, schedules[tick][client], offered_samples)``.
    """
    stream = generate_load(config.load)
    beacons = sorted({s.beacon_id for _, scans, _ in stream.ticks
                      for s in scans})
    owner = {b: i % config.n_clients for i, b in enumerate(beacons)}

    seqs = [0] * config.n_clients
    tick_times: List[float] = []
    raw: List[List[List[Dict[str, Any]]]] = []
    for t, scans, imu in stream.ticks:
        tick_times.append(float(t))
        per_client: List[List[Dict[str, Any]]] = [
            [] for _ in range(config.n_clients)]
        by_beacon: Dict[str, List] = {}
        for s in scans:
            by_beacon.setdefault(s.beacon_id, []).append(s)
        for b in sorted(by_beacon):
            c = owner[b]
            per_client[c].append({
                "type": "scan", "seq": seqs[c], "beacon": b,
                "samples": [[s.timestamp, s.rssi, s.channel]
                            for s in by_beacon[b]],
            })
            seqs[c] += 1
        imu = list(imu)
        for i in range(0, len(imu), config.imu_chunk):
            chunk = imu[i:i + config.imu_chunk]
            per_client[0].append({
                "type": "imu", "seq": seqs[0],
                "samples": [[s.timestamp, s.accel, s.gyro_z, s.mag_heading]
                            for s in chunk],
            })
            seqs[0] += 1
        raw.append(per_client)

    # Roll each client's whole fate script in one deterministic pass.
    fates: List[List[FrameFate]] = []
    for c in range(config.n_clients):
        rng = np.random.default_rng((config.seed, 104729, c))
        fates.append(config.transport.plan(rng, seqs[c]))
    cursor = [0] * config.n_clients
    schedules: List[List[_TickSchedule]] = []
    for per_client in raw:
        tick_sched: List[_TickSchedule] = []
        for c, frames in enumerate(per_client):
            sched: _TickSchedule = []
            for frame in frames:
                sched.append((frame, fates[c][cursor[c]]))
                cursor[c] += 1
            tick_sched.append(sched)
        schedules.append(tick_sched)
    return tick_times, schedules, stream.offered_samples


async def _drive(
    config: GatewaySoakConfig, result: GatewaySoakResult,
    errors: ErrorLedger,
) -> List[float]:
    """Run the live soak; returns the tick times."""
    tick_times, schedules, offered = _build_schedules(config)
    result.offered_samples = offered

    fleet = TrackingFleet(config.fleet)
    gateway = IngestionGateway(config.gateway, fleet)
    writer: Optional[TraceWriter] = None
    if config.record_path is not None:
        writer = TraceWriter(config.record_path, meta=trace_meta(gateway))
        gateway.tap = writer
        result.trace_path = config.record_path

    clients = [
        SimulatedClient(
            f"c{c:03d}", gateway,
            ack_timeout_s=config.ack_timeout_s,
            max_attempts=config.max_attempts,
            sleep_scale=config.sleep_scale,
        )
        for c in range(config.n_clients)
    ]

    try:
        for t, tick_sched in zip(tick_times, schedules):
            outcomes = await asyncio.gather(
                *(clients[c].run_schedule(sched)
                  for c, sched in enumerate(tick_sched) if sched),
                return_exceptions=True,
            )
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    errors.record(outcome)
            snapshots = gateway.tick(t)
            result.ticks += 1
            result.tick_digests.append(snapshot_digest(snapshots))
        for client in clients:
            await client.close()
        await gateway.drain_clients()
    finally:
        if writer is not None:
            writer.close()
            gateway.tap = None

    for name in sorted(gateway.task_errors):
        errors.fail(f"gateway task: {name}")
    result.delivered_samples = sum(c.stats.taken for c in clients)
    result.fleet_sessions = gateway.fleet.total_sessions
    stats = gateway.stats()
    result.queue_shed = stats["queue_shed"]
    result.gateway_counters = dict(gateway.counters)
    result.client_stats = {
        c.client_id: c.stats.as_dict() for c in clients
    }
    return tick_times


def run_gateway_soak(config: GatewaySoakConfig) -> GatewaySoakResult:
    """Run one gateway soak to completion (drives its own event loop)."""
    result = GatewaySoakResult()
    errors = ErrorLedger(typed=_TYPED)
    with Audit() as audit:
        tick_times = asyncio.run(_drive(config, result, errors))
    result.parity_failures = audit.parity_failures
    result.errors = errors.errors
    result.untyped_errors = errors.untyped

    if config.record_path is not None:
        replayed = replay(config.record_path)
        # replay() checked the trace's own digests; the live stream must
        # agree too, so live, trace and replay all match.
        if replayed.identical:
            replayed.mismatches = digest_mismatches(
                result.tick_digests, replayed.digests, tick_times)
        result.replay_result = replayed
    return result
