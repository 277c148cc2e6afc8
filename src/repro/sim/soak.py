"""Long-horizon soak testing of the streaming tracking service.

The robustness claims of :mod:`repro.service` are *temporal*: a session must
ride out minutes of bursty loss and whole scan outages, a checkpoint taken
mid-stream must resume bit-identically, and nothing in the stack may ever
throw an untyped exception at the supervisor. None of that is visible in a
single-batch test — it needs hours-equivalent of simulated stream time with
faults injected, which is what this harness provides::

    from repro.sim.faults import FaultModel
    from repro.sim.soak import SoakConfig, run_soak

    result = run_soak(SoakConfig(
        duration_s=300.0,
        fault=FaultModel(loss_rate=0.3, n_outages=2, outage_s=60.0),
        checkpoint_t=150.0,
    ))
    assert result.passed

The harness simulates one long multi-leg walk, degrades each beacon's trace
through :class:`~repro.sim.faults.FaultModel`, and replays the stream into a
one-shard :class:`~repro.fleet.TrackingFleet` (a standalone service) tick
by tick. With ``checkpoint_t`` set it additionally performs a
*kill-and-resume*: the fleet is checkpointed at that stream time (through a
JSON round trip, i.e. exactly what a process restart would read back from
disk), a fresh fleet is restored from it, and both the uninterrupted
original and the resumed copy replay the remaining stream — their per-tick
snapshot digests must match exactly
(:func:`repro.sim.harness.digest_mismatches`).

Everything is seeded and deterministic; ``python -m repro soak`` wraps this
module for the command line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.fleet import FleetConfig, TrackingFleet
from repro.service import ServiceConfig
from repro.service.session import SessionSnapshot, snapshot_digest
from repro.sim.faults import FaultModel
from repro.sim.harness import (Audit, ErrorLedger, Tick, digest_mismatches,
                               slice_ticks)
from repro.sim.simulator import BeaconSpec, MeasurementRecord, Simulator
from repro.types import RssiSample, Vec2
from repro.world.scenarios import scenario
from repro.world.trajectory import DEFAULT_WALK_SPEED, Trajectory

__all__ = ["SoakConfig", "SoakResult", "run_soak", "long_walk"]


@dataclass(frozen=True)
class SoakConfig:
    """One soak experiment: world, faults, stream schedule, kill point."""

    duration_s: float = 300.0
    tick_s: float = 1.0
    seed: int = 0
    scenario_index: int = 6
    n_beacons: int = 1
    fault: FaultModel = field(default_factory=FaultModel)
    #: Stream time of the mid-run kill-and-resume; ``None`` skips the
    #: checkpoint/restore equivalence phase.
    checkpoint_t: Optional[float] = None
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Optional path for a durable JSON-lines event log of the whole run
    #: (readable by ``python -m repro obs report``). The in-memory event
    #: accounting in :attr:`SoakResult.events` happens either way.
    events_jsonl: Optional[str] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ConfigurationError("duration_s must be finite and > 0")
        if not (math.isfinite(self.tick_s) and self.tick_s > 0):
            raise ConfigurationError("tick_s must be finite and > 0")
        if self.n_beacons < 1:
            raise ConfigurationError("n_beacons must be >= 1")
        if self.checkpoint_t is not None and not (
            0.0 < self.checkpoint_t < self.duration_s
        ):
            raise ConfigurationError(
                "checkpoint_t must fall inside (0, duration_s)"
            )


@dataclass(frozen=True)
class SoakResult:
    """Everything a soak run observed, ready for assertions and reports."""

    duration_s: float
    ticks: int
    #: Per-beacon snapshot sequence from the uninterrupted run.
    snapshots: Dict[str, List[SessionSnapshot]]
    #: Per-beacon health transitions ``(t, from, to)``.
    transitions: Dict[str, List[Tuple[float, str, str]]]
    #: Per-beacon seconds spent in each session state.
    dwell: Dict[str, Dict[str, float]]
    #: Service-aggregated event counters (solves, fixes, sheds, trips...).
    counters: Dict[str, int]
    #: Final :meth:`TrackingFleet.stats` of the uninterrupted run.
    stats: Dict[str, object]
    #: ``"ExcType: message"`` for every exception the stream driver caught.
    errors: Tuple[str, ...]
    #: How many of those were *untyped* (not a :class:`ReproError`) — the
    #: service's contract is that this is always zero.
    untyped_errors: int
    #: Kill-and-resume verdict: ``None`` when no checkpoint was requested,
    #: else whether the resumed run matched the uninterrupted one exactly.
    checkpoint_equal: Optional[bool]
    #: First stream time at which the resumed run diverged (None if never).
    divergence_t: Optional[float]
    #: Structured-event count by event name over the whole run (from the
    #: run-scoped :class:`repro.sim.harness.Audit`'s counting sink).
    events: Dict[str, int] = field(default_factory=dict)
    #: :mod:`repro.perf` counter deltas over the run — the cross-check
    #: partner of :attr:`events`.
    perf_counters: Dict[str, int] = field(default_factory=dict)
    #: Signals whose event volume differed from their perf counter delta
    #: (:func:`repro.obs.signal_parity`; must be empty).
    parity_failures: Tuple[str, ...] = ()
    #: Where the JSON-lines event log was written (None when not requested).
    events_jsonl: Optional[str] = None

    @property
    def passed(self) -> bool:
        """No untyped error, no parity failure, no resume divergence."""
        return (self.untyped_errors == 0 and not self.parity_failures
                and self.checkpoint_equal is not False)

    def states_visited(self, beacon_id: str) -> List[str]:
        """Distinct session states in first-visit order (incl. the start)."""
        seen: List[str] = []
        for snap in self.snapshots.get(beacon_id, []):
            if not seen or seen[-1] != snap.state:
                seen.append(snap.state)
        return seen


def long_walk(
    start: Vec2,
    rng: np.random.Generator,
    bounds: Tuple[float, float],
    duration_s: float,
    leg_range: Tuple[float, float] = (1.5, 4.0),
    speed: float = DEFAULT_WALK_SPEED,
    margin: float = 0.5,
) -> Trajectory:
    """A seeded multi-leg random walk lasting at least ``duration_s``.

    Unlike :func:`~repro.world.trajectory.random_waypoint_walk` the leg
    count is not fixed up front — legs are appended until the walk covers
    the requested stream duration, staying ``margin`` metres inside
    ``bounds``.
    """
    if speed <= 0:
        raise ConfigurationError("speed must be positive")
    lo = Vec2(margin, margin)
    hi = Vec2(bounds[0] - margin, bounds[1] - margin)
    if lo.x >= hi.x or lo.y >= hi.y:
        raise ConfigurationError("bounds too small for the walk margin")
    pts = [start]
    times = [0.0]
    while times[-1] < duration_s + 2.0:
        for _attempt in range(64):
            length = rng.uniform(*leg_range)
            heading = rng.uniform(-math.pi, math.pi)
            nxt = pts[-1] + Vec2.from_polar(length, heading)
            if lo.x <= nxt.x <= hi.x and lo.y <= nxt.y <= hi.y:
                pts.append(nxt)
                times.append(times[-1] + length / speed)
                break
        else:
            raise ConfigurationError(
                "could not place a soak-walk leg inside the bounds"
            )
    return Trajectory(pts, times)


def simulate_walk(
    scenario_index: int,
    rng: np.random.Generator,
    duration_s: float,
    beacon_ids: Sequence[str],
) -> MeasurementRecord:
    """The soak's and the load generator's world: one seeded
    :func:`long_walk` past beacons ringed round the scenario's beacon."""
    sc = scenario(scenario_index)
    walk = long_walk(sc.observer_start, rng,
                     bounds=(sc.floorplan.width, sc.floorplan.height),
                     duration_s=duration_s)
    n = len(beacon_ids)
    specs = [
        BeaconSpec(b, position=sc.beacon_position + (
            Vec2(0.0, 0.0) if k == 0
            else Vec2.from_polar(0.6 + 0.2 * k, 2.0 * math.pi * k / n)))
        for k, b in enumerate(beacon_ids)
    ]
    return Simulator(sc.floorplan, rng).simulate(walk, specs)


def _build_stream(config: SoakConfig) -> List[Tick]:
    """Simulate the world once and slice it into per-tick ingest batches."""
    beacon_ids = [f"b{k}" for k in range(config.n_beacons)]
    rec = simulate_walk(config.scenario_index,
                        np.random.default_rng(config.seed),
                        config.duration_s, beacon_ids)
    fault_rng = np.random.default_rng(config.seed + 977)
    scans: List[RssiSample] = []
    for beacon_id in beacon_ids:
        degraded = config.fault.apply(rec.rssi_traces[beacon_id], fault_rng)
        scans.extend(degraded.samples)
    scans.sort(key=lambda s: (s.timestamp, s.beacon_id))
    return slice_ticks(scans, rec.observer_imu.trace.samples,
                       config.duration_s, config.tick_s)


def _drive(
    fleet: TrackingFleet,
    ticks: Sequence[Tick],
    errors: ErrorLedger,
) -> List[Dict[str, SessionSnapshot]]:
    """Replay ingest batches into a fleet; one snapshot dict per tick.

    The fleet must *never* raise on data; anything caught is booked in
    ``errors`` (that tick yields ``{}``), so one bug cannot hide the next.
    """
    out: List[Dict[str, SessionSnapshot]] = []
    for t, scan_batch, imu_batch in ticks:
        snaps: Dict[str, SessionSnapshot] = {}
        with errors.capture():
            fleet.ingest_scans(scan_batch)
            fleet.ingest_imu(imu_batch)
            snaps = fleet.tick(t)
        out.append(snaps)
    return out


def run_soak(config: Optional[SoakConfig] = None) -> SoakResult:
    """Run one seeded soak experiment; see the module docstring.

    One :class:`~repro.sim.harness.Audit` observes the whole run, resume
    included, and writes the ``events_jsonl`` log when one is set.
    """
    config = config or SoakConfig()
    ticks = _build_stream(config)
    errors = ErrorLedger()
    mismatches = None
    with Audit(config.events_jsonl) as audit:
        fleet = TrackingFleet(FleetConfig(n_shards=1,
                                          service=config.service))
        if config.checkpoint_t is None:
            per_tick = _drive(fleet, ticks, errors)
        else:
            cut = next(
                (i for i, (t, _, _) in enumerate(ticks)
                 if t >= config.checkpoint_t),
                len(ticks) - 1,
            )
            head, tail = ticks[: cut + 1], ticks[cut + 1:]
            per_tick = _drive(fleet, head, errors)
            # The kill: what a restarting process would read back from disk.
            checkpoint_json = json.dumps(fleet.checkpoint())
            original = _drive(fleet, tail, errors)
            per_tick += original
            resumed = TrackingFleet.restore(json.loads(checkpoint_json))
            mismatches = digest_mismatches(
                [snapshot_digest(s) for s in original],
                [snapshot_digest(s) for s in _drive(resumed, tail, errors)],
                [t for t, _, _ in tail])

    snapshots: Dict[str, List[SessionSnapshot]] = {}
    for snaps in per_tick:
        for beacon_id, snap in snaps.items():
            snapshots.setdefault(beacon_id, []).append(snap)
    t_end = ticks[-1][0] if ticks else 0.0
    sessions = sorted(fleet.workers[0].service.sessions.items())
    stats = fleet.stats()
    return SoakResult(
        duration_s=config.duration_s,
        ticks=len(ticks),
        snapshots=snapshots,
        transitions={b: list(sess.health.transitions) for b, sess in sessions},
        dwell={b: sess.health.dwell(t_end) for b, sess in sessions},
        counters=dict(stats["counters"]),
        stats=stats,
        errors=tuple(errors.errors),
        untyped_errors=errors.untyped,
        checkpoint_equal=None if mismatches is None else not mismatches,
        divergence_t=mismatches[0][1] if mismatches else None,
        events=audit.events,
        perf_counters=audit.perf_delta,
        parity_failures=tuple(audit.parity_failures),
        events_jsonl=config.events_jsonl,
    )
