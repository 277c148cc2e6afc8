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
    assert result.untyped_errors == 0 and result.checkpoint_equal

The harness simulates one long multi-leg walk, degrades each beacon's trace
through :class:`~repro.sim.faults.FaultModel`, and replays the stream into a
:class:`~repro.service.TrackingService` tick by tick. With ``checkpoint_t``
set it additionally performs a *kill-and-resume*: the service is
checkpointed at that stream time (through a JSON round trip, i.e. exactly
what a process restart would read back from disk), a fresh service is
restored from it, and both the uninterrupted original and the resumed copy
replay the remaining stream — their snapshot sequences must match exactly.

Everything is seeded and deterministic; ``python -m repro soak`` wraps this
module for the command line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs, perf
from repro.errors import ConfigurationError, ReproError
from repro.service import ServiceConfig, TrackingService
from repro.service.session import SessionSnapshot, snapshot_key
from repro.sim.faults import FaultModel
from repro.sim.simulator import BeaconSpec, Simulator
from repro.types import ImuSample, RssiSample, Vec2
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
    #: Final :meth:`TrackingService.stats` of the uninterrupted run.
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
    #: Structured-event volume by event name over the whole run (drained
    #: from a run-scoped :class:`repro.obs.RingBufferSink`).
    events: Dict[str, int] = field(default_factory=dict)
    #: :mod:`repro.perf` counter deltas over the run — the cross-check
    #: partner of :attr:`events` (e.g. ``fix.provenance`` events must equal
    #: the ``service.fixes_accepted`` delta).
    perf_counters: Dict[str, int] = field(default_factory=dict)
    #: Where the JSON-lines event log was written (None when not requested).
    events_jsonl: Optional[str] = None

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


def _build_stream(config: SoakConfig):
    """Simulate the world once and slice it into per-tick ingest batches."""
    sc = scenario(config.scenario_index)
    rng = np.random.default_rng(config.seed)
    walk = long_walk(
        sc.observer_start, rng,
        bounds=(sc.floorplan.width, sc.floorplan.height),
        duration_s=config.duration_s,
    )
    beacons = []
    for k in range(config.n_beacons):
        offset = (Vec2(0.0, 0.0) if k == 0
                  else Vec2.from_polar(0.6 + 0.2 * k,
                                       2.0 * math.pi * k / config.n_beacons))
        beacons.append(
            BeaconSpec(f"b{k}", position=sc.beacon_position + offset)
        )
    sim = Simulator(sc.floorplan, rng)
    rec = sim.simulate(walk, beacons)

    fault_rng = np.random.default_rng(config.seed + 977)
    scans: List[RssiSample] = []
    for spec in beacons:
        degraded = config.fault.apply(rec.rssi_traces[spec.beacon_id],
                                      fault_rng)
        scans.extend(degraded.samples)
    scans.sort(key=lambda s: (s.timestamp, s.beacon_id))
    imu: List[ImuSample] = list(rec.observer_imu.trace.samples)

    ticks: List[Tuple[float, List[RssiSample], List[ImuSample]]] = []
    n_ticks = int(math.ceil(config.duration_s / config.tick_s))
    si = ii = 0
    for k in range(1, n_ticks + 1):
        t = k * config.tick_s
        sj = si
        while sj < len(scans) and scans[sj].timestamp < t:
            sj += 1
        ij = ii
        while ij < len(imu) and imu[ij].timestamp < t:
            ij += 1
        ticks.append((t, scans[si:sj], imu[ii:ij]))
        si, ii = sj, ij
    return ticks


def _drive(
    service: TrackingService,
    ticks,
    errors: List[str],
) -> Dict[str, List[SessionSnapshot]]:
    """Replay ingest batches into a service, capturing every exception.

    The service's contract is to *never* raise on data; anything caught
    here is recorded as a soak failure rather than aborting the run, so a
    single bug cannot hide later ones.
    """
    out: Dict[str, List[SessionSnapshot]] = {}
    for t, scan_batch, imu_batch in ticks:
        try:
            service.ingest_scans(scan_batch)
            service.ingest_imu(imu_batch)
            snaps = service.tick_batch(t)
        except Exception as exc:  # noqa: BLE001 — the whole point of a soak
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        for beacon_id, snap in snaps.items():
            out.setdefault(beacon_id, []).append(snap)
    return out


def run_soak(config: Optional[SoakConfig] = None) -> SoakResult:
    """Run one seeded soak experiment; see the module docstring.

    The whole run is observed through run-scoped :mod:`repro.obs` sinks: a
    counting sink whose per-event-name totals land in
    :attr:`SoakResult.events`, and (with ``events_jsonl`` set) a durable
    JSON-lines log for ``python -m repro obs report``. The
    :mod:`repro.perf` counter deltas over the same interval are captured
    alongside so acceptance tests can cross-check that every fix, shed,
    breaker trip and covariance fallback is accounted for in both ledgers.
    """
    config = config or SoakConfig()
    ticks = _build_stream(config)
    errors: List[str] = []

    counting = obs.add_sink(obs.CountingSink())
    jsonl: Optional[obs.JsonLinesSink] = None
    if config.events_jsonl is not None:
        jsonl = obs.add_sink(obs.JsonLinesSink(config.events_jsonl))
    try:
        return _run_soak_observed(config, ticks, errors, counting)
    finally:
        obs.remove_sink(counting)
        if jsonl is not None:
            obs.remove_sink(jsonl)
            jsonl.close()


def _run_soak_observed(
    config: SoakConfig,
    ticks,
    errors: List[str],
    counting: "obs.CountingSink",
) -> SoakResult:
    perf_before = dict(perf.snapshot()["counters"])
    service = TrackingService(config.service)
    checkpoint_json: Optional[str] = None
    if config.checkpoint_t is not None:
        cut = next(
            (i for i, (t, _, _) in enumerate(ticks)
             if t >= config.checkpoint_t),
            len(ticks) - 1,
        )
        head, tail = ticks[: cut + 1], ticks[cut + 1:]
        snapshots = _drive(service, head, errors)
        # The kill: what a restarting process would read back from disk.
        checkpoint_json = json.dumps(service.checkpoint())
        for beacon_id, snaps in _drive(service, tail, errors).items():
            snapshots.setdefault(beacon_id, []).extend(snaps)
        resumed = TrackingService.restore(json.loads(checkpoint_json))
        resumed_snaps = _drive(resumed, tail, errors)
    else:
        tail = []
        snapshots = _drive(service, ticks, errors)
        resumed_snaps = None

    checkpoint_equal: Optional[bool] = None
    divergence_t: Optional[float] = None
    if resumed_snaps is not None:
        checkpoint_equal = True
        n_tail = len(tail)
        for beacon_id, full in sorted(snapshots.items()):
            original = full[len(full) - n_tail:]
            resumed_seq = resumed_snaps.get(beacon_id, [])
            if len(original) != len(resumed_seq):
                checkpoint_equal = False
                divergence_t = original[0].t if original else None
                break
            for a, b in zip(original, resumed_seq):
                if snapshot_key(a) != snapshot_key(b):
                    checkpoint_equal = False
                    divergence_t = a.t
                    break
            if not checkpoint_equal:
                break

    t_end = ticks[-1][0] if ticks else 0.0
    transitions = {
        beacon_id: list(sess.health.transitions)
        for beacon_id, sess in sorted(service.sessions.items())
    }
    dwell = {
        beacon_id: sess.health.dwell(t_end)
        for beacon_id, sess in sorted(service.sessions.items())
    }
    stats = service.stats()
    perf_after = perf.snapshot()["counters"]
    perf_delta = {
        name: int(count) - int(perf_before.get(name, 0))
        for name, count in sorted(perf_after.items())
        if int(count) - int(perf_before.get(name, 0)) > 0
    }
    return SoakResult(
        duration_s=config.duration_s,
        ticks=len(ticks),
        snapshots=snapshots,
        transitions=transitions,
        dwell=dwell,
        counters=dict(stats["counters"]),
        stats=stats,
        errors=tuple(errors),
        untyped_errors=sum(
            1 for e in errors
            if not e.split(":", 1)[0] in _REPRO_ERROR_NAMES
        ),
        checkpoint_equal=checkpoint_equal,
        divergence_t=divergence_t,
        events=dict(sorted(counting.by_name.items())),
        perf_counters=perf_delta,
        events_jsonl=config.events_jsonl,
    )


def _repro_error_names() -> frozenset:
    names = set()
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        names.add(cls.__name__)
        stack.extend(cls.__subclasses__())
    return frozenset(names)


_REPRO_ERROR_NAMES = _repro_error_names()
