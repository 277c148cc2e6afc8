"""Seeded crash chaos: kill the process, corrupt the disk, prove recovery.

``python -m repro chaos`` runs the acceptance experiment for the whole
durability layer. One seeded workload is driven twice:

* **Baseline** — an uninterrupted gateway→supervisor→fleet run recording
  a sealed trace and the per-tick snapshot digests. This is the ground
  truth a crashed-and-recovered run must be bit-identical to.
* **Chaos** — the same workload with scripted disasters: in-process
  shard-worker crashes (contained and restarted by the
  :class:`~repro.durability.supervisor.FleetSupervisor`), SIGKILL-style
  process deaths at seeded ticks (the gateway, supervisor and trace
  writer are abandoned mid-run — no ``close()``, no seal), torn final
  trace writes (the file is truncated mid-line or left with a partial
  appended record), and bit-flips injected into snapshot files in the
  :class:`~repro.durability.store.CheckpointStore`. After each kill the
  run comes back through :func:`~repro.durability.supervisor.recover`
  (snapshot + verified trace suffix) and the lost tail — at most the one
  torn record per kill — is re-driven from the workload, modelling
  at-least-once client retransmission.

The gates, each of which fails the run:

1. **No errors** — the schedule is built so recovery always succeeds,
   so any exception that reaches the harness fails it; one that is not a
   :class:`~repro.errors.ReproError` is also counted as untyped, a bug.
2. **Digest-identical recovery** — every re-driven tick inside
   :func:`recover` must reproduce the digest the dying process recorded,
   and the chaos run's final-tick snapshot digest must equal the
   baseline's.
3. **Bounded loss** — across the whole run, at most one trace record
   (the torn line) may be lost per kill, and each is re-driven anyway.
4. **Signal parity** — every signal's obs event volume must equal its
   same-named :mod:`repro.perf` counter delta over the run, recovery
   path included (:class:`repro.sim.harness.Audit`).
5. **Replayable artifacts** — the sealed baseline trace replays
   digest-identically, and every crashed segment trace stays readable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.fleet import FleetConfig, TrackingFleet
from repro.gateway.gateway import GatewayConfig, IngestionGateway
from repro.gateway.trace import (
    TraceWriter,
    recover_trace,
    replay,
    snapshot_digest,
    trace_meta,
)
from repro.durability.store import CheckpointStore
from repro.durability.supervisor import (
    FleetSupervisor,
    RecoveryReport,
    recover,
)
from repro.obs.sinks import DURABILITY_POLICIES
from repro.sim.harness import Audit, ErrorLedger
from repro.sim.load import LoadConfig, generate_load

__all__ = ["ChaosConfig", "ChaosResult", "run_chaos"]


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos experiment: workload size, disaster schedule, policies."""

    seed: int = 0
    ticks: int = 36
    tick_s: float = 1.0
    n_beacons: int = 8
    n_shards: int = 2
    #: SIGKILL-simulated process deaths (each followed by a recovery).
    kills: int = 2
    #: In-process shard-worker crashes (contained, not process-fatal).
    shard_crashes: int = 2
    checkpoint_every: int = 4
    #: Probability a kill additionally tears the trace's final write.
    torn_write_prob: float = 0.5
    #: Probability a kill additionally bit-flips the newest snapshot.
    bitflip_prob: float = 0.5
    #: Store/trace write policy; ``"flush"`` is faster for smoke tests.
    durability: str = "fsync"

    def __post_init__(self) -> None:
        if self.ticks < 12:
            raise ConfigurationError("ticks must be >= 12")
        if self.kills < 0 or self.shard_crashes < 0:
            raise ConfigurationError("kills/shard_crashes must be >= 0")
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        if not 0.0 <= self.torn_write_prob <= 1.0:
            raise ConfigurationError("torn_write_prob must be in [0, 1]")
        if not 0.0 <= self.bitflip_prob <= 1.0:
            raise ConfigurationError("bitflip_prob must be in [0, 1]")
        if self.durability not in DURABILITY_POLICIES:
            raise ConfigurationError(
                "durability must be 'flush' or 'fsync'")
        third = self.ticks // 3
        if self.kills and third + self.checkpoint_every + 3 > self.ticks - 2:
            raise ConfigurationError(
                "ticks too short for the kill schedule: grow ticks or "
                "shrink checkpoint_every")


@dataclass
class ChaosResult:
    """Everything one chaos run measured, plus the pass/fail gates."""

    config: ChaosConfig = field(default_factory=ChaosConfig)
    kill_ticks: Tuple[int, ...] = ()
    shard_crash_ticks: Tuple[Tuple[int, int], ...] = ()  # (tick, shard)
    torn_injected: int = 0
    bitflips_injected: int = 0
    baseline_final_digest: str = ""
    chaos_final_digest: str = ""
    lost_ticks: int = 0
    #: ``"ExcType: message"`` per failure that reached the harness.
    errors: List[str] = field(default_factory=list)
    #: How many of those were not a :class:`~repro.errors.ReproError`.
    untyped_errors: int = 0
    recoveries: List[RecoveryReport] = field(default_factory=list)
    quarantined_files: int = 0
    shard_restarts: int = 0
    parity_failures: List[str] = field(default_factory=list)
    #: Artifact checks, run after an error-free run (None when skipped).
    replay_identical: Optional[bool] = None
    segment_traces_readable: Optional[bool] = None

    @property
    def digests_identical(self) -> bool:
        return (self.baseline_final_digest == self.chaos_final_digest
                and all(r.identical for r in self.recoveries))

    @property
    def loss_bounded(self) -> bool:
        """At most the one torn trace record per kill may be lost."""
        return self.lost_ticks <= len(self.kill_ticks)

    @property
    def passed(self) -> bool:
        return (not self.errors and self.digests_identical
                and self.loss_bounded and not self.parity_failures
                and self.replay_identical is True
                and self.segment_traces_readable is True)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "kill_ticks": list(self.kill_ticks),
            "shard_crash_ticks": [list(p) for p in self.shard_crash_ticks],
            "torn_injected": self.torn_injected,
            "bitflips_injected": self.bitflips_injected,
            "baseline_final_digest": self.baseline_final_digest,
            "chaos_final_digest": self.chaos_final_digest,
            "digests_identical": self.digests_identical,
            "lost_ticks": self.lost_ticks,
            "loss_bounded": self.loss_bounded,
            "errors": list(self.errors),
            "untyped_errors": self.untyped_errors,
            "recoveries": [
                {
                    "checkpoint_seq": r.checkpoint_seq,
                    "checkpoint_tick": r.checkpoint_tick,
                    "redriven_ticks": r.redriven_ticks,
                    "torn_line": r.trace_recovery.torn_line,
                    "quarantined": len(r.quarantined),
                    "identical": r.identical,
                }
                for r in self.recoveries
            ],
            "quarantined_files": self.quarantined_files,
            "shard_restarts": self.shard_restarts,
            "parity_failures": list(self.parity_failures),
            "replay_identical": self.replay_identical,
            "segment_traces_readable": self.segment_traces_readable,
        }


def _schedule(
    config: ChaosConfig, rng: np.random.Generator
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Seeded disaster schedule, disjoint by design.

    Shard crashes land in the first third of the run and kills in the
    back two-thirds, separated by at least one checkpoint interval —
    so every trace record a kill's recovery re-drives was produced by a
    fully healthy fleet and its digest is comparable. (A shard crash
    *concurrent* with a kill is a real scenario, but its recovered
    digests are legitimately degraded — that composition is exercised by
    the supervisor tests, not gated on digest identity here.)
    """
    third = config.ticks // 3
    crash_ticks: List[Tuple[int, int]] = []
    if config.shard_crashes and third > 3:
        ticks = rng.choice(np.arange(2, third),
                           size=min(config.shard_crashes, third - 3),
                           replace=False)
        crash_ticks = sorted(
            (int(t), int(rng.integers(0, config.n_shards)))
            for t in ticks
        )
    kill_lo = third + config.checkpoint_every + 3
    kill_hi = config.ticks - 2
    kill_ticks: List[int] = []
    if config.kills and kill_hi > kill_lo:
        pool = np.arange(kill_lo, kill_hi)
        picked = rng.choice(pool, size=min(config.kills, len(pool)),
                            replace=False)
        kill_ticks = sorted(int(t) for t in picked)
        # Each recovery needs at least one live tick before the next
        # kill; thin out adjacent picks.
        thinned = []
        for t in kill_ticks:
            if not thinned or t - thinned[-1] >= 2:
                thinned.append(t)
        kill_ticks = thinned
    return kill_ticks, crash_ticks


def _tear_trace(path: str, rng: np.random.Generator) -> bool:
    """Simulate a torn final write: truncate mid-line or append a partial.

    Returns True when the file was actually modified.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if rng.random() < 0.5:
        # Tear the last committed line: drop 1..len-1 of its bytes.
        body = data.rstrip(b"\n")
        last_nl = body.rfind(b"\n")
        last_line = body[last_nl + 1:]
        if len(last_line) < 2:
            return False
        cut = int(rng.integers(1, len(last_line)))
        torn = body[:len(body) - cut]
        with open(path, "wb") as fh:
            fh.write(torn)
        return True
    # A write that died mid-record: partial JSON, no newline.
    fragment = b'{"kind":"tick","t":9' + b"9" * int(rng.integers(1, 8))
    with open(path, "ab") as fh:
        fh.write(fragment)
    return True


def _bitflip_snapshot(root: str, rng: np.random.Generator) -> bool:
    """Flip one byte in the newest fleet snapshot (if an older one exists).

    Recovery must quarantine the flipped file and fall back; flipping the
    *only* snapshot would make the run legitimately unrecoverable, which
    is not the property under test here (the fuzz suite covers it).
    """
    names = sorted(
        (n for n in os.listdir(root)
         if n.startswith("fleet-") and n.endswith(".ckpt.json")),
        reverse=True,
    )
    if len(names) < 2:
        return False
    path = os.path.join(root, names[0])
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if not data:
        return False
    pos = int(rng.integers(0, len(data)))
    data[pos] ^= 0x01 if data[pos] != 0x0B else 0x02
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    return True


def _build_stack(
    config: ChaosConfig,
    store: Optional[CheckpointStore],
) -> Tuple[IngestionGateway, FleetSupervisor]:
    fleet = TrackingFleet(FleetConfig(n_shards=config.n_shards))
    supervisor = FleetSupervisor(
        fleet, store=store, checkpoint_every=config.checkpoint_every)
    gateway = IngestionGateway(GatewayConfig(), supervisor)
    return gateway, supervisor


def run_chaos(config: Optional[ChaosConfig] = None,
              workdir: Optional[str] = None) -> ChaosResult:
    """Run the full chaos experiment; see the module docstring for gates.

    ``workdir`` holds the baseline trace, the chaos segment traces and
    the checkpoint store; a temp directory is created (and the artifacts
    kept for inspection) when not given.
    """
    config = config or ChaosConfig()
    if workdir is None:
        import tempfile
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng((config.seed, 104729))
    result = ChaosResult(config=config)
    kill_ticks, crash_ticks = _schedule(config, rng)
    result.kill_ticks = tuple(kill_ticks)
    result.shard_crash_ticks = tuple(crash_ticks)
    crash_by_tick = {t: shard for t, shard in crash_ticks}

    stream = generate_load(LoadConfig(
        duration_s=config.ticks * config.tick_s,
        tick_s=config.tick_s,
        seed=config.seed,
        n_beacons=config.n_beacons,
        template_beacons=min(2, config.n_beacons),
        rate_hz=3.0,
    ))
    ticks = list(stream.ticks)[:config.ticks]

    baseline_path = os.path.join(workdir, "baseline.trace")
    store_root = os.path.join(workdir, "store")
    segment_path = (lambda i: os.path.join(workdir, f"chaos-{i}.trace"))

    def drive_one(gateway: IngestionGateway, k: int):
        t, scans, imu = ticks[k]
        gateway.enqueue_scans(list(scans))
        gateway.enqueue_imu(list(imu))
        return gateway.tick(float(t))

    errors = ErrorLedger()
    with Audit() as audit, errors.capture():
        # ---- baseline: the uninterrupted ground truth --------------------
        gateway, _ = _build_stack(config, store=None)
        with TraceWriter(baseline_path, meta=trace_meta(gateway),
                         durability=config.durability) as writer:
            gateway.tap = writer
            snaps: Dict[str, Any] = {}
            for k in range(len(ticks)):
                snaps = drive_one(gateway, k)
        result.baseline_final_digest = snapshot_digest(snaps)

        # ---- chaos: same workload, scripted disasters --------------------
        store = CheckpointStore(store_root, durability=config.durability)
        gateway, supervisor = _build_stack(config, store)
        segment = 0
        writer = TraceWriter(segment_path(segment),
                             meta=trace_meta(gateway),
                             durability=config.durability)
        gateway.tap = writer
        trace_offset = 0
        supervisor.checkpoint_now()  # tick-0 snapshot: always restorable
        driven = 0
        snaps = {}
        kills_pending = list(kill_ticks)
        while driven < len(ticks):
            if kills_pending and driven == kills_pending[0]:
                kills_pending.pop(0)
                # SIGKILL: abandon everything mid-run. No close(), no
                # seal — exactly the artifacts a dead process leaves.
                del gateway, supervisor, writer
                if rng.random() < config.torn_write_prob:
                    if _tear_trace(segment_path(segment), rng):
                        result.torn_injected += 1
                if rng.random() < config.bitflip_prob:
                    if _bitflip_snapshot(store_root, rng):
                        result.bitflips_injected += 1
                gateway, report = recover(
                    store_root, segment_path(segment),
                    store=CheckpointStore(store_root,
                                          durability=config.durability),
                    checkpoint_every=config.checkpoint_every,
                    trace_start_tick=trace_offset,
                )
                result.recoveries.append(report)
                result.quarantined_files += len(report.quarantined)
                covered = report.checkpoint_tick + report.redriven_ticks
                result.lost_ticks += max(driven - covered, 0)
                supervisor = gateway.fleet
                segment += 1
                writer = TraceWriter(segment_path(segment),
                                     meta=trace_meta(gateway),
                                     durability=config.durability)
                gateway.tap = writer
                trace_offset = covered
                supervisor.checkpoint_now()
                # At-least-once retransmission: the torn tick (if any)
                # is re-driven from the workload.
                driven = covered
                continue
            shard = crash_by_tick.get(driven)
            if shard is not None:
                supervisor.inject_crash(shard)
            snaps = drive_one(gateway, driven)
            driven += 1
        writer.close()  # the run finally completed: seal the last segment
        result.chaos_final_digest = snapshot_digest(snaps)
        result.shard_restarts = supervisor.restarts
        if supervisor.failed:
            errors.fail(f"shards still failed at end of run: "
                        f"{sorted(supervisor.failed)}")
    result.errors = errors.errors
    result.untyped_errors = errors.untyped
    result.parity_failures = audit.parity_failures

    # ---- the recorded artifacts replay and stay readable ------------------
    if not result.errors:
        result.replay_identical = replay(baseline_path).identical
        segments = map(segment_path, range(len(result.recoveries) + 1))
        result.segment_traces_readable = all(
            _readable(p) for p in segments if os.path.exists(p))
    return result


def _readable(trace_path: str) -> bool:
    try:
        recover_trace(trace_path)
    except ReproError:
        return False
    return True


def format_report(result: ChaosResult) -> str:
    """Human-readable chaos report for the CLI."""
    lines = [
        "chaos: %s" % ("PASS" if result.passed else "FAIL"),
        f"  kills at ticks {list(result.kill_ticks)}; shard crashes "
        f"{[list(p) for p in result.shard_crash_ticks]}",
        f"  injected: {result.torn_injected} torn trace writes, "
        f"{result.bitflips_injected} snapshot bit-flips",
        f"  recoveries: {len(result.recoveries)} "
        f"(quarantined {result.quarantined_files} files); "
        f"shard restarts: {result.shard_restarts}",
        f"  lost ticks: {result.lost_ticks} "
        f"(bounded: {result.loss_bounded})",
        f"  digests identical: {result.digests_identical} "
        f"(baseline {result.baseline_final_digest[:12]}…, "
        f"chaos {result.chaos_final_digest[:12]}…)",
        f"  errors: {len(result.errors)} "
        f"({result.untyped_errors} untyped)",
        f"  parity failures: {len(result.parity_failures)}",
    ]
    for err in result.errors:
        lines.append(f"    ! {err}")
    for fail in result.parity_failures:
        lines.append(f"    ! parity {fail}")
    if result.replay_identical is not None:
        lines.append(f"  baseline replay identical: "
                     f"{result.replay_identical}")
    if result.segment_traces_readable is not None:
        lines.append(f"  crashed segment traces readable: "
                     f"{result.segment_traces_readable}")
    return "\n".join(lines)
