"""Command-line interface: run LocBLE experiments without writing code.

Usage examples::

    python -m repro locate --scenario 1 --seed 3
    python -m repro table1 --seeds 4
    python -m repro envaware --sessions 8
    python -m repro cluster --scenario 7 --beacons 6 --seed 2
    python -m repro sweep-distance --repeats 3
    python -m repro coverage --scenario 6
    python -m repro report --scenario 1 --seed 1
    python -m repro degrade --scenario 1 --seeds 8 --loss 0 0.1 0.3
    python -m repro soak --duration 300 --loss 0.3 --outages 2 --outage-s 60
    python -m repro gateway --duration 20 --drop 0.1 --corrupt 0.05 \\
        --record run.trace
    python -m repro gateway --replay run.trace
    python -m repro gateway --replay crashed.trace --allow-unsealed
    python -m repro chaos --seed 1 --kills 2

Every command is a thin wrapper over the public API, prints a small report
and returns 0 on success, so the CLI doubles as living documentation of the
library's entry points.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LocBLE reproduction: locate BLE beacons in simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("locate", help="one measurement in a Table-1 scenario")
    p.add_argument("--scenario", type=int, default=1, choices=range(1, 10))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--leg1", type=float, default=2.8)
    p.add_argument("--leg2", type=float, default=2.2)
    p.add_argument("--env-prior", choices=["auto", "off"], default="auto")

    p = sub.add_parser("table1", help="per-environment accuracy sweep")
    p.add_argument("--seeds", type=int, default=3)

    p = sub.add_parser("envaware", help="train and score the classifier")
    p.add_argument("--sessions", type=int, default=8)
    p.add_argument("--test-sessions", type=int, default=4)

    p = sub.add_parser("cluster", help="multi-beacon clustering calibration")
    p.add_argument("--scenario", type=int, default=7, choices=range(1, 10))
    p.add_argument("--beacons", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep-distance", help="accuracy vs target distance")
    p.add_argument("--repeats", type=int, default=3)

    from repro.ble.devices import BEACONS

    p = sub.add_parser("coverage", help="ASCII coverage map of a scenario")
    p.add_argument("--scenario", type=int, default=6, choices=range(1, 10))
    p.add_argument("--beacon", choices=sorted(BEACONS), default="estimote")
    p.add_argument("--cell", type=float, default=0.5)

    p = sub.add_parser("report", help="quality report for one measurement")
    p.add_argument("--scenario", type=int, default=1, choices=range(1, 10))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "degrade",
        help="accuracy degradation curve under injected trace faults",
    )
    p.add_argument("--scenario", type=int, default=1, choices=range(1, 10))
    p.add_argument("--seeds", type=int, default=8)
    p.add_argument("--loss", type=float, nargs="+",
                   default=[0.0, 0.1, 0.3, 0.5],
                   help="bursty loss rates to sweep")
    p.add_argument("--burst", type=float, default=3.0,
                   help="mean loss burst length (samples)")
    p.add_argument("--outages", type=int, default=0,
                   help="number of scan outages per trace")
    p.add_argument("--outage-s", type=float, default=1.0)
    p.add_argument("--jitter-ms", type=float, default=0.0,
                   help="timestamp jitter sigma (ms)")
    p.add_argument("--skew-ppm", type=float, default=0.0)
    p.add_argument("--spike-rate", type=float, default=0.0)
    p.add_argument("--spike-db", type=float, default=20.0)
    p.add_argument("--nan-rate", type=float, default=0.0)

    p = sub.add_parser(
        "soak",
        help="long-horizon streaming soak of the tracking service",
    )
    p.add_argument("--scenario", type=int, default=6, choices=range(1, 10))
    p.add_argument("--duration", type=float, default=300.0,
                   help="stream length (seconds)")
    p.add_argument("--tick", type=float, default=1.0,
                   help="ingest/step period (seconds)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beacons", type=int, default=1)
    p.add_argument("--loss", type=float, default=0.3,
                   help="bursty scan loss rate")
    p.add_argument("--burst", type=float, default=3.0,
                   help="mean loss burst length (samples)")
    p.add_argument("--outages", type=int, default=2,
                   help="number of full scanner outages")
    p.add_argument("--outage-s", type=float, default=60.0)
    p.add_argument("--nan-rate", type=float, default=0.0)
    p.add_argument("--checkpoint-t", type=float, default=None,
                   help="stream time of a mid-run kill-and-resume check")
    p.add_argument("--events-log", type=str, default=None, metavar="PATH",
                   help="write the run's structured events as JSON lines "
                        "(readable by 'repro obs report')")

    p = sub.add_parser(
        "gateway",
        help="soak the async ingestion gateway under transport faults, "
             "or replay a recorded trace",
    )
    p.add_argument("--duration", type=float, default=30.0,
                   help="stream length (seconds)")
    p.add_argument("--tick", type=float, default=1.0,
                   help="gateway tick period (seconds)")
    p.add_argument("--beacons", type=int, default=8)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--rate", type=float, default=4.0,
                   help="per-beacon advertising rate (Hz)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", type=int, default=6, choices=range(1, 10))
    p.add_argument("--drop", type=float, default=0.0,
                   help="frame loss rate")
    p.add_argument("--dup", type=float, default=0.0,
                   help="frame duplication rate")
    p.add_argument("--reorder", type=float, default=0.0,
                   help="frame reordering rate")
    p.add_argument("--corrupt", type=float, default=0.0,
                   help="mid-flight byte-flip rate")
    p.add_argument("--truncate", type=float, default=0.0,
                   help="mid-frame connection-death rate")
    p.add_argument("--disconnect", type=float, default=0.0,
                   help="clean-disconnect rate")
    p.add_argument("--stall", type=float, default=0.0,
                   help="slow-loris stall rate")
    p.add_argument("--stall-s", type=float, default=0.05,
                   help="seconds each stalled frame pauses mid-frame")
    p.add_argument("--client-timeout", type=float, default=1.0,
                   help="gateway read timeout per connection (seconds)")
    p.add_argument("--scan-queue", type=int, default=1024,
                   help="per-beacon bounded queue capacity")
    p.add_argument("--record", type=str, default=None, metavar="PATH",
                   help="record the committed tick stream to a trace file "
                        "and check that it replays bit-identically")
    p.add_argument("--replay", type=str, default=None, metavar="PATH",
                   help="replay-only: verify an existing trace instead of "
                        "running a soak")
    p.add_argument("--allow-unsealed", action="store_true",
                   help="with --replay: accept a crash-truncated trace "
                        "(missing end seal, at most one torn final line) "
                        "and replay its verified prefix")

    p = sub.add_parser(
        "chaos",
        help="seeded crash chaos: kill, corrupt, recover, verify digests",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ticks", type=int, default=36,
                   help="workload length in ticks")
    p.add_argument("--tick", type=float, default=1.0,
                   help="tick period (seconds)")
    p.add_argument("--beacons", type=int, default=8)
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--kills", type=int, default=2,
                   help="SIGKILL-simulated process deaths")
    p.add_argument("--shard-crashes", type=int, default=2,
                   help="in-process shard-worker crashes to inject")
    p.add_argument("--checkpoint-every", type=int, default=4,
                   help="ticks between durable fleet snapshots")
    p.add_argument("--torn-prob", type=float, default=0.5,
                   help="probability a kill tears the trace's final write")
    p.add_argument("--bitflip-prob", type=float, default=0.5,
                   help="probability a kill bit-flips the newest snapshot")
    p.add_argument("--durability", choices=["flush", "fsync"],
                   default="fsync",
                   help="store/trace write policy (flush is faster)")
    p.add_argument("--workdir", type=str, default=None, metavar="DIR",
                   help="keep traces and the checkpoint store here "
                        "(default: a fresh temp directory)")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable result instead")

    p = sub.add_parser(
        "obs",
        help="inspect a structured event log (JSON lines)",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser("report", help="summarize an event log")
    p.add_argument("log", type=str, help="path to a JSON-lines event log")
    p.add_argument("--tail", type=int, default=10,
                   help="how many newest events to print (0 disables)")

    return parser


def _cmd_locate(args) -> int:
    from repro import BeaconSpec, LocBLE, Simulator, l_shape, scenario
    from repro.core.estimator import EllipticalEstimator

    sc = scenario(args.scenario)
    rng = np.random.default_rng(args.seed)
    sim = Simulator(sc.floorplan, rng)
    walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                   leg1=args.leg1, leg2=args.leg2)
    rec = sim.simulate(walk, [BeaconSpec("b", position=sc.beacon_position)])

    estimator = EllipticalEstimator()
    if args.env_prior == "auto":
        env = sc.floorplan.classify_link(
            sc.beacon_position, sc.observer_start).env_class
        estimator = estimator.with_environment(env)
    est = LocBLE(estimator=estimator).estimate(
        rec.rssi_traces["b"], rec.observer_imu.trace)
    truth = rec.true_position_in_frame("b")

    print(f"scenario  : #{sc.index} {sc.name}")
    print(f"estimate  : ({est.position.x:+.2f}, {est.position.y:+.2f}) m")
    print(f"truth     : ({truth.x:+.2f}, {truth.y:+.2f}) m")
    print(f"error     : {est.error_to(truth):.2f} m")
    print(f"gamma / n : {est.gamma:.1f} dBm / {est.n:.2f}")
    print(f"confidence: {est.confidence:.2f}")
    return 0


def _cmd_table1(args) -> int:
    from repro import BeaconSpec, LocBLE, Simulator, l_shape, scenario
    from repro.core.estimator import EllipticalEstimator

    print(f"{'env':>3s} {'name':14s} {'class':6s} {'dist':>5s} "
          f"{'median':>7s} {'mean':>6s} {'paper':>6s}")
    for idx in range(1, 10):
        sc = scenario(idx)
        env = sc.floorplan.classify_link(
            sc.beacon_position, sc.observer_start).env_class
        errs = []
        for seed in range(args.seeds):
            rng = np.random.default_rng(seed)
            sim = Simulator(sc.floorplan, rng)
            walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                           leg1=2.8, leg2=2.2)
            rec = sim.simulate(
                walk, [BeaconSpec("b", position=sc.beacon_position)])
            est = LocBLE(
                estimator=EllipticalEstimator().with_environment(env)
            ).estimate(rec.rssi_traces["b"], rec.observer_imu.trace)
            errs.append(est.error_to(rec.true_position_in_frame("b")))
        print(f"{idx:3d} {sc.name:14s} {env:6s} {sc.nominal_distance:5.1f} "
              f"{np.median(errs):7.2f} {np.mean(errs):6.2f} "
              f"{sc.paper_accuracy_m:6.1f}")
    return 0


def _cmd_envaware(args) -> int:
    from repro.core.envaware import EnvAwareClassifier
    from repro.ml.metrics import accuracy, precision_recall_f1
    from repro.sim.datasets import EnvDatasetBuilder

    train = EnvDatasetBuilder(np.random.default_rng(20170701))
    w, y = train.build(sessions_per_class=args.sessions)
    clf = EnvAwareClassifier().fit(w, y)
    test = EnvDatasetBuilder(np.random.default_rng(20171212))
    w2, y2 = test.build(sessions_per_class=args.test_sessions)
    pred = clf.predict(w2)
    m = precision_recall_f1(np.asarray(y2), pred)
    print(f"train windows: {len(w)}  test windows: {len(w2)}")
    print(f"accuracy : {accuracy(np.asarray(y2), pred):.3f}")
    print(f"precision: {m['precision']:.3f}  (paper: 0.947)")
    print(f"recall   : {m['recall']:.3f}  (paper: 0.945)")
    return 0


def _cmd_cluster(args) -> int:
    from repro import (BeaconSpec, ClusteringCalibrator, LocBLE, Simulator,
                       Vec2, l_shape, scenario)
    from repro.core.estimator import EllipticalEstimator

    sc = scenario(args.scenario)
    rng = np.random.default_rng(args.seed)
    sim = Simulator(sc.floorplan, rng)
    walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                   leg1=2.8, leg2=2.2)
    beacons = [BeaconSpec("target", position=sc.beacon_position)]
    for k in range(max(args.beacons - 1, 0)):
        offset = Vec2.from_polar(
            0.3, 2.0 * math.pi * k / max(args.beacons - 1, 1))
        beacons.append(
            BeaconSpec(f"n{k}", position=sc.beacon_position + offset))
    rec = sim.simulate(walk, beacons)
    truth = rec.true_position_in_frame("target")
    env = sc.floorplan.classify_link(
        sc.beacon_position, sc.observer_start).env_class
    pipeline = LocBLE(estimator=EllipticalEstimator().with_environment(env))

    single = pipeline.estimate(rec.rssi_traces["target"],
                               rec.observer_imu.trace)
    result = ClusteringCalibrator(pipeline).calibrate(
        "target", rec.rssi_traces, rec.observer_imu.trace)
    print(f"scenario #{sc.index} {sc.name}, {args.beacons} beacons")
    print(f"single-beacon error : {single.error_to(truth):.2f} m")
    print(f"calibrated error    : {result.error_to(truth):.2f} m")
    print(f"cluster members     : {', '.join(result.contributors)}")
    return 0


def _cmd_sweep_distance(args) -> int:
    from repro import BeaconSpec, Floorplan, LocBLE, Simulator, Vec2, l_shape
    from repro.errors import EstimationError, InsufficientDataError

    print(f"{'distance':>8s} {'mean err':>9s}")
    for d in (2.8, 5.6, 8.4, 11.2, 14.0):
        errs = []
        for seed in range(args.repeats):
            rng = np.random.default_rng(int(d * 100) + seed)
            sim = Simulator(Floorplan("lot", 30, 20, outdoor=True), rng)
            start = Vec2(2.0, 8.0)
            beacon = start + Vec2.from_polar(d, math.radians(12.0))
            walk = l_shape(start, 0.0, leg1=2.8, leg2=2.2)
            rec = sim.simulate(walk, [BeaconSpec("b", position=beacon)])
            try:
                est = LocBLE().estimate(rec.rssi_traces["b"],
                                        rec.observer_imu.trace)
                errs.append(est.error_to(rec.true_position_in_frame("b")))
            except (EstimationError, InsufficientDataError):
                errs.append(d)
        print(f"{d:8.1f} {np.mean(errs):9.2f}")
    return 0


def _cmd_coverage(args) -> int:
    from repro.analysis import CoverageMap
    from repro.ble.devices import BEACONS
    from repro import scenario

    sc = scenario(args.scenario)
    cm = CoverageMap(sc.floorplan, sc.beacon_position,
                     profile=BEACONS[args.beacon], cell_m=args.cell)
    print(f"scenario #{sc.index} {sc.name}, beacon {args.beacon} at "
          f"{sc.beacon_position}")
    print(f"coverage: {cm.coverage_fraction():.0%} of the floor\n")
    print(cm.ascii_map())
    return 0


def _cmd_report(args) -> int:
    from repro import BeaconSpec, Simulator, l_shape, scenario
    from repro.core.reporting import session_report

    sc = scenario(args.scenario)
    rng = np.random.default_rng(args.seed)
    sim = Simulator(sc.floorplan, rng)
    walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                   leg1=2.8, leg2=2.2)
    rec = sim.simulate(walk, [BeaconSpec("b", position=sc.beacon_position)])
    print(session_report(rec.rssi_traces["b"], rec.observer_imu.trace))
    truth = rec.true_position_in_frame("b")
    print(f"ground truth: ({truth.x:+.2f}, {truth.y:+.2f}) m")
    return 0


def _cmd_degrade(args) -> int:
    from repro import scenario
    from repro.sim.faults import FaultModel, degradation_sweep
    from repro.service.session import default_pipeline_factory
    from repro.sim.montecarlo import summarize

    sc = scenario(args.scenario)
    models = [
        FaultModel(
            loss_rate=loss,
            mean_burst=args.burst,
            n_outages=args.outages,
            outage_s=args.outage_s,
            jitter_s=args.jitter_ms / 1000.0,
            skew_ppm=args.skew_ppm,
            spike_rate=args.spike_rate,
            spike_db=args.spike_db,
            nan_rate=args.nan_rate,
        )
        for loss in args.loss
    ]
    print(f"scenario #{sc.index} {sc.name}, {args.seeds} seeds per point")
    print(f"{'loss':>5s} {'n':>3s} {'median':>7s} {'mean':>6s} {'p90':>6s}")
    sweep = degradation_sweep(
        sc, range(args.seeds), models,
        pipeline_factory=default_pipeline_factory,
    )
    for model, errors in sweep:
        if not errors:
            print(f"{model.loss_rate:5.2f}   0  all trials refused")
            continue
        s = summarize(errors)
        print(f"{model.loss_rate:5.2f} {s.n:3d} {s.median:7.2f} "
              f"{s.mean:6.2f} {s.p90:6.2f}")
    return 0


def _print_errors(result) -> None:
    print(f"errors    : {len(result.errors)} "
          f"({result.untyped_errors} untyped)")
    for line in result.errors[:5]:
        print(f"  ! {line}")


def _cmd_soak(args) -> int:
    from repro.sim.faults import FaultModel
    from repro.sim.soak import SoakConfig, run_soak

    result = run_soak(SoakConfig(
        duration_s=args.duration,
        tick_s=args.tick,
        seed=args.seed,
        scenario_index=args.scenario,
        n_beacons=args.beacons,
        fault=FaultModel(
            loss_rate=args.loss,
            mean_burst=args.burst,
            n_outages=args.outages,
            outage_s=args.outage_s,
            nan_rate=args.nan_rate,
        ),
        checkpoint_t=args.checkpoint_t,
        events_jsonl=args.events_log,
    ))
    print(f"soak      : {result.duration_s:.0f} s stream, "
          f"{result.ticks} ticks, {args.beacons} beacon(s)")
    print(f"faults    : loss={args.loss:.2f} outages={args.outages}"
          f"x{args.outage_s:.0f}s nan={args.nan_rate:.2f}")
    for beacon_id in sorted(result.snapshots):
        path = " -> ".join(result.states_visited(beacon_id))
        print(f"  {beacon_id:8s}: {path}")
        dwell = result.dwell.get(beacon_id, {})
        spent = ", ".join(f"{state}={dwell[state]:.0f}s"
                          for state in sorted(dwell) if dwell[state] > 0)
        print(f"  {'':8s}  dwell: {spent}")
    counts = ", ".join(f"{k}={v}" for k, v in sorted(result.counters.items())
                       if v)
    print(f"counters  : {counts}")
    if result.checkpoint_equal is not None:
        verdict = ("bit-identical resume"
                   if result.checkpoint_equal
                   else f"DIVERGED at t={result.divergence_t}")
        print(f"checkpoint: t={args.checkpoint_t:.0f}s -> {verdict}")
    _print_errors(result)
    if result.events:
        total = sum(result.events.values())
        top = sorted(result.events.items(), key=lambda kv: (-kv[1], kv[0]))
        shown = ", ".join(f"{name}={n}" for name, n in top[:6])
        print(f"events    : {total} total ({shown})")
    if result.parity_failures:
        print(f"parity    : FAILED for {list(result.parity_failures)}")
    if result.events_jsonl:
        print(f"event log : {result.events_jsonl} "
              f"(inspect with 'repro obs report')")
    return 0 if result.passed else 1


def _cmd_gateway(args) -> int:
    from repro.fleet import FleetConfig
    from repro.gateway import (GatewayConfig, GatewaySoakConfig,
                               replay, run_gateway_soak)
    from repro.sim.faults import TransportFaultModel
    from repro.sim.load import LoadConfig

    if args.replay is not None:
        result = replay(args.replay, allow_unsealed=args.allow_unsealed)
        print(f"replay    : {args.replay}"
              + (" (unsealed prefix)" if args.allow_unsealed else ""))
        print(f"ticks     : {result.ticks} "
              f"({result.samples} scans, {result.imu_samples} imu)")
        print(f"sessions  : {result.final_sessions} live after replay")
        if result.identical:
            print("verdict   : bit-identical snapshot stream")
            return 0
        first = result.mismatches[0]
        print(f"verdict   : DIVERGED at tick {first[0]} (t={first[1]}), "
              f"{len(result.mismatches)} mismatching tick(s)")
        return 1

    result = run_gateway_soak(GatewaySoakConfig(
        load=LoadConfig(
            duration_s=args.duration,
            tick_s=args.tick,
            seed=args.seed,
            scenario_index=args.scenario,
            n_beacons=args.beacons,
            template_beacons=min(4, args.beacons),
            rate_hz=args.rate,
        ),
        transport=TransportFaultModel(
            drop_rate=args.drop,
            duplicate_rate=args.dup,
            reorder_rate=args.reorder,
            corrupt_rate=args.corrupt,
            truncate_rate=args.truncate,
            disconnect_rate=args.disconnect,
            stall_rate=args.stall,
            stall_s=args.stall_s,
        ),
        gateway=GatewayConfig(client_timeout_s=args.client_timeout,
                              scan_queue=args.scan_queue),
        fleet=FleetConfig(n_shards=args.shards),
        n_clients=args.clients,
        seed=args.seed,
        record_path=args.record,
    ))
    print(f"gateway   : {args.clients} client(s) -> {args.shards} shard(s), "
          f"{result.ticks} ticks over {args.duration:.0f} s")
    print(f"offered   : {result.offered_samples} scan samples, "
          f"delivered {result.delivered_samples} (scan+imu), "
          f"shed {result.queue_shed}, "
          f"{result.fleet_sessions} session(s)")
    edge = ", ".join(f"{k}={v}"
                     for k, v in sorted(result.gateway_counters.items()) if v)
    print(f"edge      : {edge or 'clean run'}")
    recovery = {"retries": 0, "reconnects": 0, "timeouts": 0, "gave_up": 0}
    for stats in result.client_stats.values():
        for key in recovery:
            recovery[key] += stats[key]
    print(f"clients   : " + ", ".join(f"{k}={v}"
                                      for k, v in recovery.items()))
    _print_errors(result)
    if result.parity_failures:
        print(f"parity    : FAILED for {result.parity_failures}")
    if result.trace_path:
        print(f"trace     : {result.trace_path}")
    if result.replay_result is not None:
        verdict = ("bit-identical snapshot stream"
                   if result.replay_result.identical
                   else f"DIVERGED "
                        f"({len(result.replay_result.mismatches)} ticks)")
        print(f"replay    : {verdict}")
    print(f"verdict   : {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def _cmd_chaos(args) -> int:
    import json as _json

    from repro.durability.chaos import ChaosConfig, format_report, run_chaos

    result = run_chaos(
        ChaosConfig(
            seed=args.seed,
            ticks=args.ticks,
            tick_s=args.tick,
            n_beacons=args.beacons,
            n_shards=args.shards,
            kills=args.kills,
            shard_crashes=args.shard_crashes,
            checkpoint_every=args.checkpoint_every,
            torn_write_prob=args.torn_prob,
            bitflip_prob=args.bitflip_prob,
            durability=args.durability,
        ),
        workdir=args.workdir,
    )
    if args.json:
        print(_json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_report(result))
    return 0 if result.passed else 1


def _cmd_obs(args) -> int:
    from repro.obs.report import main as obs_report_main

    argv = [args.log, "--tail", str(args.tail)]
    return obs_report_main(argv)


_COMMANDS = {
    "locate": _cmd_locate,
    "table1": _cmd_table1,
    "envaware": _cmd_envaware,
    "cluster": _cmd_cluster,
    "sweep-distance": _cmd_sweep_distance,
    "coverage": _cmd_coverage,
    "report": _cmd_report,
    "degrade": _cmd_degrade,
    "soak": _cmd_soak,
    "gateway": _cmd_gateway,
    "chaos": _cmd_chaos,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
