"""Workload definitions and the seeded input generator of the benchmark.

A workload is one traffic mix replayed into the serving stack. Its inputs
are made here, from the seed alone, so the program under test only ever
sees generated samples:

1. The *world* is a fixture of the workload, drawn from its own
   ``WORLD_SEED``: one observer walk (a multi-leg random walk) through a
   Table-1 scenario, simulated with the repository's channel and IMU
   models for a few *template* beacons placed around the scenario's
   beacon position. Keeping the geometry fixed keeps the accuracy and
   cold-solve mix comparable across seeds; the run seed draws the
   traffic.
2. Every load beacon resamples one template's RSSI curve onto its own
   advertisement arrival process and adds per-beacon RSSI jitter drawn
   from the run seed. Periodic arrivals (BLE interval plus advDelay)
   draw their jitter from the run seed too. When each beacon comes into
   range, its bursty ON/OFF arrival times and its outage windows belong
   to the world, not the run seed.
3. Gateway workloads also roll one transport fate (duplicate / reorder)
   per outbound frame from the run seed.

Everything lands in flat NumPy arrays, so a stream is cheap to hold and
its digest (:meth:`Stream.digest`) pins the exact inputs a run replayed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.sim.simulator import BeaconSpec, Simulator
from repro.types import Vec2
from repro.world.scenarios import scenario
from repro.world.trajectory import DEFAULT_WALK_SPEED, Trajectory

#: Shared by every workload: the world fixture's seed, the advertising
#: rate, RSSI jitter and outage length, the fleet shape, the solve window
#: and the tick, and the number of gateway clients.
WORLD_SEED = 0
RATE_HZ = 8.0
RSSI_JITTER_DB = 0.8
OUTAGE_S = 12.0
N_SHARDS = 2
WINDOW_S = 20.0
TICK_S = 1.0
N_CLIENTS = 2

#: Bursty ON share and period: Android's balanced scan mode listens
#: 2.048 s of every 5.12 s.
BURST_DUTY = 0.4
BURST_PERIOD_S = 5.12

#: IMU samples per IMU frame on the gateway path (client 0 carries IMU).
IMU_CHUNK = 64

#: Beacons come into range over this many seconds (one solve period).
APPEAR_S = 2.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Distinct sub-streams of a seed, so adding a draw to one stage never
#: shifts the numbers another stage sees.
_WORLD, _BEACON, _OUTAGE, _FATES, _PHASE = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the stack it is served by."""

    name: str
    #: ``"fleet"`` drives a ``TrackingFleet`` directly; ``"gateway"`` sends
    #: frames through ``IngestionGateway`` -> ``FleetSupervisor`` -> fleet.
    path: str
    scenario: int
    n_beacons: int
    n_templates: int
    #: ``"periodic"`` (BLE interval plus advDelay) or ``"bursty"`` (ON/OFF).
    arrival: str
    #: Timed stream seconds per requested wall second; sizes a run so that
    #: serving it takes about ``--seconds`` on the reference host.
    stream_per_wall: float
    #: 12 s outages per beacon.
    outages: int = 0
    #: Untimed lead-in (stream seconds) before measurement starts.
    warmup_s: float = 0.0
    sessions_per_shard: int = 64
    #: Chance that a frame is sent twice, and (independently) that it is
    #: swapped with the next one.
    frame_fault_p: float = 0.0

    def ticks(self, seconds: float) -> Tuple[int, int]:
        """``(warm-up ticks, timed ticks)`` for a run of ``seconds``."""
        warm = int(round(self.warmup_s / TICK_S))
        timed = max(8, int(round(seconds * self.stream_per_wall / TICK_S)))
        return warm, timed


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="steady_los", path="fleet", scenario=1, n_beacons=24,
            n_templates=8, arrival="periodic", stream_per_wall=6.0,
            warmup_s=20.0,
        ),
        Workload(
            name="churn_nlos", path="fleet", scenario=7, n_beacons=6,
            n_templates=6, arrival="bursty", stream_per_wall=12.0,
            outages=2,
        ),
        Workload(
            name="edge_overload", path="gateway", scenario=1, n_beacons=192,
            n_templates=8, arrival="periodic", stream_per_wall=6.0,
            warmup_s=20.0, sessions_per_shard=4, frame_fault_p=0.05,
        ),
    )
}


@dataclass
class Stream:
    """A generated workload: samples, ground truth and frame fates."""

    workload: Workload
    seed: int
    seconds: float
    warm_ticks: int
    timed_ticks: int
    #: Scans sorted by (time, beacon): timestamp, RSSI, beacon index.
    scan_t: np.ndarray
    scan_rssi: np.ndarray
    scan_beacon: np.ndarray
    #: Observer IMU rows: timestamp, accel, gyro_z, mag_heading.
    imu: np.ndarray
    #: ``scan_lo[k]:scan_lo[k+1]`` are the scans tick ``k`` delivers (same
    #: for ``imu_lo``); tick ``k`` is due at ``(k + 1) * tick_s``.
    scan_lo: np.ndarray
    imu_lo: np.ndarray
    walk: Trajectory
    #: True position of each template beacon (world frame).
    template_xy: np.ndarray
    #: Per client, one (duplicate, reorder) flag pair per frame it sends.
    fates: List[np.ndarray]

    @property
    def n_ticks(self) -> int:
        return self.warm_ticks + self.timed_ticks

    @property
    def beacon_ids(self) -> List[str]:
        return [f"b{i:05d}" for i in range(self.workload.n_beacons)]

    def digest(self) -> str:
        """BLAKE2b over the workload definition and every generated array."""
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((astuple(self.workload), self.seed, self.seconds,
                       self.warm_ticks, self.timed_ticks)).encode())
        for arr in (self.scan_t, self.scan_rssi, self.scan_beacon, self.imu,
                    self.scan_lo, self.imu_lo, self.template_xy, *self.fates):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr([(p.x, p.y) for p in self.walk.waypoints]).encode())
        h.update(repr(self.walk.times).encode())
        return h.hexdigest()


def _walk(sc, rng: np.random.Generator, duration_s: float) -> Trajectory:
    """Multi-leg random walk inside the floorplan, lasting past the stream."""
    margin = 0.5
    hi_x, hi_y = sc.floorplan.width - margin, sc.floorplan.height - margin
    pts, times = [sc.observer_start], [0.0]
    while times[-1] < duration_s + 2.0:
        for _ in range(64):
            length = rng.uniform(1.5, 4.0)
            nxt = pts[-1] + Vec2.from_polar(
                length, rng.uniform(-math.pi, math.pi))
            if margin <= nxt.x <= hi_x and margin <= nxt.y <= hi_y:
                pts.append(nxt)
                times.append(times[-1] + length / DEFAULT_WALK_SPEED)
                break
        else:
            raise RuntimeError("could not place a walk leg inside the room")
    return Trajectory(pts, times)


def _template_positions(sc, n: int) -> List[Vec2]:
    """Template beacons ringed around the scenario's beacon, inside the room."""
    out = []
    for k in range(n):
        off = (Vec2(0.0, 0.0) if k == 0
               else Vec2.from_polar(0.6 + 0.2 * k, 2.0 * math.pi * k / n))
        p = sc.beacon_position + off
        out.append(Vec2(min(max(p.x, 0.3), sc.floorplan.width - 0.3),
                        min(max(p.y, 0.3), sc.floorplan.height - 0.3)))
    return out


def _arrivals(w: Workload, i: int, rng: np.random.Generator,
              d: float) -> np.ndarray:
    """Advertisement times in ``(0, d)`` for beacon ``i``.

    Beacons come into range at evenly spread moments of the first
    ``APPEAR_S`` seconds (a golden-ratio sequence over the beacon index),
    so sessions start, and then solve, on staggered ticks. Periodic
    advertisement times come from the run seed (``rng``). Bursty ones
    belong to the world, like the beacon's place in the scan cycle: which
    windows hold enough samples decides when sessions acquire and solve
    cold, and that mix must not change with the seed.
    """
    appear = APPEAR_S * ((i * _GOLDEN) % 1.0)
    if w.arrival == "periodic":
        base = np.arange(appear, d, 1.0 / RATE_HZ)
        ts = np.sort(base + rng.uniform(0.0, 0.01, size=base.shape))
        return ts[ts < d]
    world = np.random.default_rng([WORLD_SEED, _PHASE, i])
    offset = world.uniform(0.0, BURST_PERIOD_S)
    on_rate = RATE_HZ / BURST_DUTY
    ts = np.cumsum(world.exponential(1.0 / on_rate,
                                     size=int(on_rate * d * 1.5) + 16))
    while ts[-1] < d:
        ts = np.concatenate([ts, ts[-1] + np.cumsum(
            world.exponential(1.0 / on_rate, size=int(on_rate * d) + 16))])
    ts = ts[(ts >= appear) & (ts < d)]
    phase = np.mod(ts + offset, BURST_PERIOD_S)
    return ts[phase < BURST_DUTY * BURST_PERIOD_S]


def _frame_counts(w: Workload, scan_beacon: np.ndarray,
                  scan_lo: np.ndarray, imu_lo: np.ndarray) -> List[int]:
    """Frames each client sends over the whole stream (see ``serve``)."""
    counts = [0] * N_CLIENTS
    for k in range(len(scan_lo) - 1):
        present = np.unique(scan_beacon[scan_lo[k]:scan_lo[k + 1]])
        for c in range(N_CLIENTS):
            counts[c] += int(np.count_nonzero(present % N_CLIENTS == c))
        counts[0] += -(-int(imu_lo[k + 1] - imu_lo[k]) // IMU_CHUNK)
    return counts


def generate(w: Workload, seed: int, seconds: float) -> Stream:
    """The full, deterministic input stream of one run."""
    warm_ticks, timed_ticks = w.ticks(seconds)
    n_ticks = warm_ticks + timed_ticks
    duration = n_ticks * TICK_S

    sc = scenario(w.scenario)
    world_rng = np.random.default_rng([WORLD_SEED, _WORLD])
    walk = _walk(sc, world_rng, duration)
    tpl_pos = _template_positions(sc, w.n_templates)
    specs = [BeaconSpec(f"tpl{k}", position=p) for k, p in enumerate(tpl_pos)]
    rec = Simulator(sc.floorplan, world_rng).simulate(walk, specs)
    curves = []
    for spec in specs:
        tpl = rec.rssi_traces[spec.beacon_id].samples
        if len(tpl) < 2:
            raise RuntimeError(f"template {spec.beacon_id} is inaudible")
        curves.append((np.array([s.timestamp for s in tpl]),
                       np.array([s.rssi for s in tpl])))

    ts_parts, rssi_parts, id_parts = [], [], []
    for i in range(w.n_beacons):
        rng = np.random.default_rng([seed, _BEACON, i])
        ts = _arrivals(w, i, rng, duration)
        tpl_t, tpl_r = curves[i % w.n_templates]
        rssi = np.interp(ts, tpl_t, tpl_r) + rng.normal(
            0.0, RSSI_JITTER_DB, size=ts.shape)
        if w.outages:
            out_rng = np.random.default_rng([WORLD_SEED, _OUTAGE, i])
            keep = np.ones(ts.shape, dtype=bool)
            for start in out_rng.uniform(
                    0.0, max(duration - OUTAGE_S, 0.0), size=w.outages):
                keep &= ~((ts >= start) & (ts < start + OUTAGE_S))
            ts, rssi = ts[keep], rssi[keep]
        ts_parts.append(ts)
        rssi_parts.append(rssi)
        id_parts.append(np.full(ts.shape, i, dtype=np.int32))
    scan_t = np.concatenate(ts_parts)
    scan_beacon = np.concatenate(id_parts)
    order = np.lexsort((scan_beacon, scan_t))
    scan_t, scan_beacon = scan_t[order], scan_beacon[order]
    scan_rssi = np.concatenate(rssi_parts)[order]

    imu = np.array([(s.timestamp, s.accel, s.gyro_z, s.mag_heading)
                    for s in rec.observer_imu.trace.samples], dtype=float)
    imu = imu[imu[:, 0] < duration]
    edges = np.arange(0, n_ticks + 1) * TICK_S
    scan_lo = np.searchsorted(scan_t, edges, side="left")
    imu_lo = np.searchsorted(imu[:, 0], edges, side="left")

    fates: List[np.ndarray] = []
    if w.path == "gateway":
        for c, n in enumerate(_frame_counts(w, scan_beacon, scan_lo, imu_lo)):
            rng = np.random.default_rng([seed, _FATES, c])
            fates.append(np.stack([rng.random(n) < w.frame_fault_p,
                                   rng.random(n) < w.frame_fault_p], axis=1))

    return Stream(
        workload=w, seed=seed, seconds=seconds, warm_ticks=warm_ticks,
        timed_ticks=timed_ticks, scan_t=scan_t, scan_rssi=scan_rssi,
        scan_beacon=scan_beacon, imu=imu, scan_lo=scan_lo, imu_lo=imu_lo,
        walk=walk, template_xy=np.array([(p.x, p.y) for p in tpl_pos]),
        fates=fates,
    )
