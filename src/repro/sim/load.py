"""Wide load generation: hundreds-to-thousands of beacon streams.

The soak harness (:mod:`repro.sim.soak`) exercises *depth* — one or a few
beacons over a long horizon. The gateway soak, crash chaos and the fleet
tests need *width*: many concurrent beacon streams with realistic arrival
statistics, which a full per-beacon radio simulation cannot deliver at an
acceptable cost. This module gets both realism and scale with **template
amplification**, the standard load-generator trick:

1. A small set of *template* beacons is simulated through the full channel
   model (path loss, shadowing, fading, scanning) along one long observer
   walk — exactly the soak harness's world.
2. Each load beacon resamples a template's RSSI-vs-time curve onto its own
   advertisement **arrival process** — per-advertisement Poisson, a BLE-style
   jittered periodic schedule, or an ON/OFF bursty regime (the duty-cycled
   scanning the BLEBeacon deployment dataset reports) — plus a small
   per-beacon RSSI jitter so no two streams are byte-equal.
3. Optional :class:`~repro.sim.faults.FaultModel` degradations apply
   per-beacon on top.

The result preserves what matters for load: per-stream solvability (the
geometry underneath is a real simulated walk) and controllable offered
sample rate, while generation cost scales with *templates*, not beacons.
Everything is seeded and deterministic, like the rest of ``repro.sim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.faults import FaultModel
from repro.sim.harness import Tick, slice_ticks
from repro.sim.soak import simulate_walk
from repro.types import RssiSample, RssiTrace

__all__ = ["ARRIVALS", "LoadConfig", "LoadStream", "generate_load"]

#: Supported advertisement arrival processes.
ARRIVALS = ("poisson", "periodic", "bursty")


@dataclass(frozen=True)
class LoadConfig:
    """One load workload: world, fleet width, arrival statistics, faults.

    ``rate_hz`` is the *mean* advertisement rate per beacon, so offered
    load is ``n_beacons * rate_hz`` samples/s regardless of the arrival
    process; ``bursty`` concentrates the same mean into ON windows of
    ``burst_duty`` duty cycle over ``burst_period_s``.
    """

    duration_s: float = 60.0
    tick_s: float = 1.0
    seed: int = 0
    scenario_index: int = 6
    n_beacons: int = 100
    template_beacons: int = 4
    arrival: str = "poisson"
    rate_hz: float = 5.0
    burst_duty: float = 0.4
    burst_period_s: float = 10.0
    rssi_jitter_db: float = 0.8
    fault: FaultModel = field(default_factory=FaultModel)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ConfigurationError("duration_s must be finite and > 0")
        if not (math.isfinite(self.tick_s) and self.tick_s > 0):
            raise ConfigurationError("tick_s must be finite and > 0")
        if self.n_beacons < 1:
            raise ConfigurationError("n_beacons must be >= 1")
        if not 1 <= self.template_beacons <= self.n_beacons:
            raise ConfigurationError(
                "template_beacons must be in [1, n_beacons]"
            )
        if self.arrival not in ARRIVALS:
            raise ConfigurationError(
                f"arrival must be one of {ARRIVALS}, got {self.arrival!r}"
            )
        if not (math.isfinite(self.rate_hz) and self.rate_hz > 0):
            raise ConfigurationError("rate_hz must be finite and > 0")
        if not 0.0 < self.burst_duty <= 1.0:
            raise ConfigurationError("burst_duty must be in (0, 1]")
        if not (math.isfinite(self.burst_period_s)
                and self.burst_period_s > 0):
            raise ConfigurationError("burst_period_s must be finite and > 0")
        if not (math.isfinite(self.rssi_jitter_db)
                and self.rssi_jitter_db >= 0):
            raise ConfigurationError("rssi_jitter_db must be >= 0")


@dataclass(frozen=True)
class LoadStream:
    """A generated workload, sliced into per-tick ingest batches."""

    #: ``(t, scan_batch, imu_batch)`` per tick, ready to replay.
    ticks: Tuple[Tick, ...]
    #: Total scan samples offered across the whole stream.
    offered_samples: int
    #: Offered sample rate (samples/s over the stream duration).
    offered_per_s: float
    n_beacons: int
    duration_s: float


def _arrival_times(
    config: LoadConfig, rng: np.random.Generator
) -> np.ndarray:
    """Advertisement timestamps in ``(0, duration_s)`` for one beacon."""
    d, rate = config.duration_s, config.rate_hz
    if config.arrival == "poisson":
        # Draw enough exponential gaps in one shot, then trim.
        n_hint = int(rate * d * 1.5) + 16
        gaps = rng.exponential(1.0 / rate, size=n_hint)
        ts = np.cumsum(gaps)
        while ts[-1] < d:  # rare: extend until the horizon is covered
            more = np.cumsum(rng.exponential(1.0 / rate, size=n_hint))
            ts = np.concatenate([ts, ts[-1] + more])
        return ts[ts < d]
    if config.arrival == "periodic":
        # BLE advertising: fixed interval plus a small random advDelay.
        interval = 1.0 / rate
        base = np.arange(rng.uniform(0.0, interval), d, interval)
        ts = base + rng.uniform(0.0, 0.01, size=base.shape)
        return np.sort(ts[ts < d])
    # bursty: ON/OFF square wave; the ON-phase rate is scaled so the
    # long-run mean stays rate_hz.
    on_rate = rate / config.burst_duty
    n_hint = int(on_rate * d * 1.5) + 16
    ts = np.cumsum(rng.exponential(1.0 / on_rate, size=n_hint))
    while ts[-1] < d:
        more = np.cumsum(rng.exponential(1.0 / on_rate, size=n_hint))
        ts = np.concatenate([ts, ts[-1] + more])
    ts = ts[ts < d]
    phase_offset = rng.uniform(0.0, config.burst_period_s)
    phase = np.mod(ts + phase_offset, config.burst_period_s)
    return ts[phase < config.burst_duty * config.burst_period_s]


def generate_load(config: LoadConfig) -> LoadStream:
    """Build the full per-tick ingest schedule for one load workload."""
    # One full-fidelity world: the template beacon traces + observer IMU.
    ids = [f"tpl{k}" for k in range(config.template_beacons)]
    rec = simulate_walk(config.scenario_index,
                        np.random.default_rng(config.seed),
                        config.duration_s, ids)
    templates = [rec.rssi_traces[b] for b in ids]
    for k, tpl in enumerate(templates):
        if len(tpl) < 2:
            raise ConfigurationError(
                f"template beacon {k} produced <2 samples; "
                "scenario/duration too hostile for load generation"
            )

    scans: List[RssiSample] = []
    for i in range(config.n_beacons):
        rng = np.random.default_rng((config.seed, 7919, i))
        tpl = templates[i % len(templates)]
        tpl_ts = np.array([s.timestamp for s in tpl.samples])
        tpl_rssi = np.array([s.rssi for s in tpl.samples])
        ts = _arrival_times(config, rng)
        rssi = np.interp(ts, tpl_ts, tpl_rssi)
        if config.rssi_jitter_db > 0.0:
            rssi = rssi + rng.normal(0.0, config.rssi_jitter_db,
                                     size=rssi.shape)
        beacon_id = f"b{i:05d}"
        trace = RssiTrace([
            RssiSample(float(t), float(r), beacon_id, 37)
            for t, r in zip(ts, rssi)
        ])
        if not config.fault.is_null():
            trace = config.fault.apply(trace, rng)
        scans.extend(trace.samples)
    scans.sort(key=lambda s: (s.timestamp, s.beacon_id))
    return LoadStream(
        ticks=tuple(slice_ticks(scans, rec.observer_imu.trace.samples,
                                config.duration_s, config.tick_s)),
        offered_samples=len(scans),
        offered_per_s=len(scans) / config.duration_s,
        n_beacons=config.n_beacons,
        duration_s=config.duration_s,
    )
