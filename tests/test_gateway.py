"""Ingestion gateway: frames, transport, policing, trace, and satellites.

Fast tier-1 coverage of ``repro.gateway`` plus the regression tests for
the two satellite fixes that ride with it: sort-or-refuse ingestion in
``TrackingSession.ingest`` and per-item shed-accounting parity in
``BoundedBuffer.extend``/``insert_by``. The full hostile fault matrix and
record→replay determinism soaks live in ``test_gateway_soak.py`` (marked
``gateway``, excluded from tier-1).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs, perf
from repro.errors import ConfigurationError, DataQualityError
from repro.fleet import FleetConfig, TrackingFleet
from repro.gateway import (
    ConnectionClosed,
    FrameDecoder,
    GatewayConfig,
    IngestionGateway,
    SimulatedClient,
    TraceWriter,
    apply_reorder,
    connected_pair,
    encode_for,
    encode_frame,
    read_trace,
    replay,
    trace_meta,
    validate_frame,
)
from repro.gateway.frames import (
    BINARY_VERSION,
    PROTO_VERSION,
    scan_samples,
    screen_scan_rows,
)
from repro.gateway.trace import _gateway_from_meta, _redrive, snapshot_digest
from repro.service import ServiceConfig
from repro.service.buffers import BoundedBuffer
from repro.sim.faults import FrameFate, TransportFaultModel
from repro.types import ImuSample, RssiSample

from tests.stubs import ScriptedPipeline
from tests.test_service import scripted_session


def run(coro):
    return asyncio.run(coro)


def small_gateway(**kw) -> IngestionGateway:
    cfg = dict(client_timeout_s=1.0, scan_queue=64, imu_queue=64)
    cfg.update(kw)
    fleet = TrackingFleet(FleetConfig(
        n_shards=2, service=ServiceConfig(max_sessions=16)))
    return IngestionGateway(GatewayConfig(**cfg), fleet)


# -- wire frames --------------------------------------------------------------


class TestFrames:
    def test_roundtrip_any_fragmentation(self):
        frames = [
            {"type": "hello", "client": "c", "proto": PROTO_VERSION},
            {"type": "scan", "seq": 0, "beacon": "b",
             "samples": ((1.0, -60.0, 37.0),)},
            {"type": "bye"},
        ]
        wire = b"".join(encode_for(f) for f in frames)
        assert encode_for(frames[1])[4] == BINARY_VERSION
        decoder = FrameDecoder()
        out = []
        for i in range(len(wire)):  # worst case: one byte at a time
            out.extend(decoder.feed(wire[i:i + 1]))
        assert out == frames
        decoder.eof()  # clean boundary: no error

    def test_oversized_length_refused_before_allocation(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(DataQualityError):
            decoder.feed(b"\xff\xff\xff\xff")

    def test_non_utf8_non_json_non_object_all_typed(self):
        for payload in (b"\x80\x81", b"not json", b"[1,2]", b'"str"'):
            decoder = FrameDecoder()
            wire = len(payload).to_bytes(4, "big") + payload
            with pytest.raises(DataQualityError):
                decoder.feed(wire)

    def test_poisoned_decoder_stays_poisoned(self):
        decoder = FrameDecoder()
        with pytest.raises(DataQualityError):
            decoder.feed(b"\x00\x00\x00\x02[]")
        with pytest.raises(DataQualityError):
            decoder.feed(encode_frame({"type": "bye"}))

    def test_eof_mid_frame_is_truncation(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"type": "bye"})[:3])
        with pytest.raises(DataQualityError):
            decoder.eof()

    def test_validate_schemas(self):
        validate_frame({"type": "scan", "seq": 0, "beacon": "b",
                        "samples": ((1.0, -60.0, 37.0),)})
        validate_frame({"type": "hello", "client": "c", "proto": 99})
        bad = [
            {"type": "warp"},
            {"type": "hello", "client": "c", "proto": 0},
            {"type": "hello", "client": "c", "proto": 1},
            {"type": "hello", "client": "c", "proto": 2},
            {"type": "hello", "client": "c", "proto": "3"},
            {"type": "hello", "client": "c", "proto": True},
            {"type": "hello", "client": 3, "proto": 3},
            {"type": "scan", "seq": -1, "beacon": "b", "samples": []},
            {"type": "scan", "seq": True, "beacon": "b", "samples": []},
            {"type": "scan", "seq": 0, "beacon": "", "samples": []},
            {"type": "scan", "seq": 0, "beacon": "b", "samples": [[1.0]]},
            {"type": "scan", "seq": 0, "beacon": "b",
             "samples": [[1.0, "x", 37]]},
            {"type": "imu", "seq": 0, "samples": [[1.0, 2.0, 3.0]]},
        ]
        for frame in bad:
            with pytest.raises(DataQualityError):
                validate_frame(frame)

    def test_hello_above_proto_version_is_welcomed_with_it(self):
        async def go():
            gw = small_gateway()
            replies = await wire_exchange(gw, [], hello_proto=99)
            await gw.drain_clients()
            return replies
        assert PROTO_VERSION == 3
        assert run(go()) == [{"type": "welcome", "proto": 3}]

    def test_scan_samples_screens_nonfinite_time_keeps_nan_rssi(self):
        samples, rejected = scan_samples({
            "type": "scan", "seq": 0, "beacon": "b",
            "samples": [[float("nan"), -60.0, 37],
                        [1.0, float("nan"), 37]],
        })
        assert rejected == 1
        assert len(samples) == 1 and samples[0].timestamp == 1.0


# -- transport ----------------------------------------------------------------


class TestTransport:
    def test_duplex_and_eof_semantics(self):
        async def go():
            a, b = connected_pair()
            await a.send(b"ping")
            assert await b.recv() == b"ping"
            a.close()
            assert await b.recv() == b""
            assert await b.recv() == b""  # EOF is sticky
            with pytest.raises(ConnectionClosed):
                await a.send(b"after close")
        run(go())

    def test_window_blocks_until_reader_drains(self):
        async def go():
            a, b = connected_pair(buffer_chunks=2)
            await a.send(b"1")
            await a.send(b"2")
            blocked = asyncio.ensure_future(a.send(b"3"))
            await asyncio.sleep(0)
            assert not blocked.done()  # window full: writer is parked
            assert await b.recv() == b"1"
            await asyncio.sleep(0)
            assert blocked.done()
        run(go())


    def test_recv_timeout_expires_typed_and_consumes_nothing(self):
        async def go():
            a, b = connected_pair()
            with pytest.raises(asyncio.TimeoutError):
                await b.recv(timeout=0.01)
            await a.send(b"late")
            assert await b.recv(timeout=0.01) == b"late"
            a.close()
            assert await b.recv(timeout=0.01) == b""
        run(go())

    def test_recv_wait_starts_no_task(self):
        async def go():
            a, b = connected_pair()
            reader = asyncio.ensure_future(b.recv(timeout=5.0))
            await asyncio.sleep(0)
            tasks = asyncio.all_tasks()
            await a.send(b"x")
            assert await reader == b"x"
            return len(tasks)
        assert run(go()) == 2  # the test's own task and the reader

    def test_outside_cancellation_propagates(self):
        async def go():
            a, b = connected_pair()
            reader = asyncio.ensure_future(b.recv(timeout=5.0))
            await asyncio.sleep(0)
            reader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await reader
            # The cancelled wait left no reader behind.
            await a.send(b"after")
            assert await b.recv() == b"after"
        run(go())


# -- gateway policing ---------------------------------------------------------


class TestGatewayPolicing:
    def test_handshake_required(self):
        async def go():
            gw = small_gateway()
            ep = gw.connect()
            await ep.send(encode_frame({"type": "bye"}))
            decoder = FrameDecoder()
            reply = None
            while reply is None:
                chunk = await ep.recv()
                if chunk == b"":
                    break
                frames = decoder.feed(chunk)
                reply = frames[0] if frames else None
            await gw.drain_clients()
            assert reply is not None and reply["code"] == "handshake"
            assert gw.counters["bad_handshake"] == 1
        run(go())

    def test_seq_dedup_survives_reconnect(self):
        async def go():
            gw = small_gateway()
            client = SimulatedClient("c0", gw, ack_timeout_s=0.5)
            frame = {"type": "scan", "seq": 7, "beacon": "b1",
                     "samples": [[1.0, -60.0, 37]]}
            assert await client.send_frame(frame)
            await client.close()
            # Same seq after a full reconnect: must be acked as duplicate.
            assert await client.send_frame(frame)
            await client.close()
            await gw.drain_clients()
            assert client.stats.dup_acks == 1
            assert gw.counters["frame_duplicate"] == 1
            assert len(gw.scan_queues["b1"]) == 1  # ingested exactly once
        run(go())

    def test_malformed_stream_hangs_up_typed(self):
        async def go():
            gw = small_gateway()
            client = SimulatedClient("c0", gw, ack_timeout_s=0.5)
            ok = await client.send_frame(
                {"type": "scan", "seq": 0, "beacon": "b1",
                 "samples": [[1.0, -60.0, 37]]},
                FrameFate(corrupt=True))
            await client.close()
            await gw.drain_clients()
            assert ok  # the retry after reconnect delivered
            assert gw.counters["frame_malformed"] == 1
            assert client.stats.reconnects >= 1
            assert gw.task_errors == []
        run(go())

    def test_slow_loris_expelled_by_timeout(self):
        async def go():
            gw = small_gateway(client_timeout_s=0.05)
            client = SimulatedClient("c0", gw, ack_timeout_s=0.5)
            ok = await client.send_frame(
                {"type": "scan", "seq": 0, "beacon": "b1",
                 "samples": [[1.0, -60.0, 37]]},
                FrameFate(stall_s=0.2))
            await client.close()
            await gw.drain_clients()
            assert ok
            assert gw.counters["client_timeout"] >= 1
            assert gw.task_errors == []
        run(go())

    def test_busy_gateway_refuses_extra_clients(self):
        async def go():
            gw = small_gateway(max_clients=1)
            first = SimulatedClient("c0", gw, ack_timeout_s=0.5)
            assert await first.send_frame(
                {"type": "scan", "seq": 0, "beacon": "b1",
                 "samples": [[1.0, -60.0, 37]]})
            second = SimulatedClient("c1", gw, ack_timeout_s=0.2,
                                     max_attempts=1)
            ok = await second.send_frame(
                {"type": "scan", "seq": 0, "beacon": "b2",
                 "samples": [[1.0, -60.0, 37]]})
            await first.close()
            await second.close()
            await gw.drain_clients()
            assert not ok
            assert gw.counters["client_rejected"] == 1
        run(go())

    def test_late_samples_refused_at_edge(self):
        async def go():
            gw = small_gateway(late_horizon_s=10.0)
            client = SimulatedClient("c0", gw, ack_timeout_s=0.5)
            assert await client.send_frame(
                {"type": "scan", "seq": 0, "beacon": "b1",
                 "samples": [[99.0, -60.0, 37]]})
            gw.tick(100.0)
            assert await client.send_frame(
                {"type": "scan", "seq": 1, "beacon": "b1",
                 "samples": [[50.0, -61.0, 37], [99.5, -62.0, 37]]})
            await client.close()
            await gw.drain_clients()
            assert gw.counters["sample_late"] == 1
            assert client.stats.taken == 2  # the straggler never landed
        run(go())

    def test_beacon_admission_and_queue_shed_parity(self):
        async def go():
            perf.reset()
            gw = small_gateway(max_beacons=1, scan_queue=2)
            client = SimulatedClient("c0", gw, ack_timeout_s=0.5)
            assert await client.send_frame(
                {"type": "scan", "seq": 0, "beacon": "b1",
                 "samples": [[1.0 + 0.1 * i, -60.0, 37] for i in range(5)]})
            assert await client.send_frame(
                {"type": "scan", "seq": 1, "beacon": "b2",
                 "samples": [[1.0, -60.0, 37]]})
            await client.close()
            await gw.drain_clients()
            # b1 queue capacity 2: three of five shed, with the ritual.
            assert gw.scan_queues["b1"].shed == 3
            assert perf.counter_value("service.shed.gateway.scan") == 3
            # b2 refused by edge admission (max_beacons=1), acked anyway.
            assert gw.counters["admission_refused"] == 1
            assert "b2" not in gw.scan_queues
            assert client.stats.acks == 2
        run(go())

    def test_counter_event_parity_everywhere(self):
        # Every gateway counter must have an equal n-weighted event volume.
        async def go(gw, sink):
            client = SimulatedClient("c0", gw, ack_timeout_s=0.3)
            for seq, fate in enumerate([
                FrameFate(), FrameFate(duplicate=True), FrameFate(drop=True),
                FrameFate(corrupt=True), FrameFate(truncate=True),
                FrameFate(disconnect=True),
            ]):
                await client.send_frame(
                    {"type": "scan", "seq": seq, "beacon": "b1",
                     "samples": [[1.0 + seq, -60.0, 37]]}, fate)
            await client.close()
            await gw.drain_clients()

        sink = obs.add_sink(obs.CountingSink())
        try:
            gw = small_gateway()
            run(go(gw, sink))
        finally:
            obs.remove_sink(sink)
        assert gw.counters  # the matrix above must have tripped some
        for name, count in gw.counters.items():
            assert sink.volume.get(f"gateway.{name}") == count, name


# -- edge admission -----------------------------------------------------------


def overload_fleet(max_total=None):
    """Two shards of two session slots each, on the scripted pipeline."""
    return TrackingFleet(FleetConfig(
        n_shards=2, service=ServiceConfig(max_sessions=2),
        max_total_sessions=max_total), pipeline_factory=ScriptedPipeline)


def on_shard(shard, n, tag):
    """``n`` beacon ids the (unsalted, 2-shard) router places on ``shard``."""
    router = overload_fleet().router
    ids = (f"{tag}{i:02d}" for i in range(1000))
    return [b for b in ids if router.shard_for(b) == shard][:n]


A = on_shard(0, 4, "a")  # hash to shard 0
C = on_shard(1, 4, "c")  # hash to shard 1


def rows(k, beacon):
    """Three scan rows of ``beacon`` for tick ``k``."""
    i = int(beacon[1:])
    return [[k - 0.6 + 0.2 * j, -60.0 - i - 0.5 * j, 37] for j in range(3)]


def imu(k):
    return [ImuSample(k - 1.0 + 0.05 * i, 0.5, 0.0, 0.0) for i in range(20)]


async def framed_run(gw, beacons_at, ticks, before=None, window=None):
    """Serve ``beacons_at(k)`` as scan frames, then tick; per tick the
    snapshot digest and the refusals the edge made."""
    client = SimulatedClient("c0", gw, ack_timeout_s=0.5)
    seq, digests, edge = 0, [], []
    for k in range(1, ticks + 1):
        if before is not None:
            before(gw.fleet, k)
        for beacon in beacons_at(k):
            assert await client.send_frame({
                "type": "scan", "seq": seq, "beacon": beacon,
                "samples": rows(k, beacon)})
            seq += 1
        if window is not None:
            window(gw.fleet, k)
        edge.append(dict(gw.refused))
        gw.enqueue_imu(imu(k))
        digests.append(snapshot_digest(gw.tick(float(k))))
    await client.close()
    await gw.drain_clients()
    return digests, edge


def direct_run(gw, beacons_at, ticks, before=None, window=None):
    """The same samples through ``enqueue_scans``: the drain admits."""
    digests = []
    for k in range(1, ticks + 1):
        if before is not None:
            before(gw.fleet, k)
        gw.enqueue_scans([RssiSample(float(t), float(r), b, int(c))
                          for b in beacons_at(k) for t, r, c in rows(k, b)])
        if window is not None:
            window(gw.fleet, k)
        gw.enqueue_imu(imu(k))
        digests.append(snapshot_digest(gw.tick(float(k))))
    return digests


SHED_KEYS = ("sessions", "sessions_per_shard", "sessions_shed",
             "shed_samples", "admission_refused", "refused_samples")


def shed_stats(fleet):
    stats = fleet.stats()
    return {k: stats[k] for k in SHED_KEYS}


def twin_runs(beacons_at, ticks, max_total=None, before=None, window=None):
    framed = IngestionGateway(GatewayConfig(), overload_fleet(max_total))
    direct = IngestionGateway(GatewayConfig(), overload_fleet(max_total))
    digests, edge = run(framed_run(framed, beacons_at, ticks, before, window))
    assert direct_run(direct, beacons_at, ticks, before, window) == digests
    return framed, direct, edge


class TestEdgeAdmission:
    """The gateway asks the fleet's admission rule before building a
    frame's samples; the fleet ends up exactly as when the drain refuses
    the same samples."""

    def test_admits_is_the_drain_rule(self):
        fleet = overload_fleet(max_total=3)
        fleet.ingest_scans([RssiSample(0.5, -60.0, b, 37)
                            for b in (A[0], A[1], C[0])])
        assert fleet.admits(A[0]) is None  # has a session
        assert fleet.admits(A[2]) == "max_total_sessions"
        fleet = overload_fleet()
        fleet.ingest_scans([RssiSample(0.5, -60.0, b, 37)
                            for b in (A[0], A[1], C[0])])
        assert fleet.admits(A[2]) == "max_sessions"
        assert fleet.admits(C[1]) is None  # shard 1 has room

    @pytest.mark.parametrize("max_total", [None, 4, 3])
    def test_edge_equals_drain(self, max_total):
        # Tick 1: every beacon is new, so the edge admits them all and
        # the drain refuses (each shard fills in that drain). Tick 2 adds
        # A[2] and A[3] — both new on shard 0, which has one free slot
        # under the shard cap: the edge admits both and the drain refuses
        # A[3]. Later ticks are refused at the edge.
        def beacons_at(k):
            return (A[:2] + C if k == 1 else A[:4] + C) if k < 3 else A + C
        framed, direct, edge = twin_runs(beacons_at, 5, max_total)
        assert edge[0] == {} and edge[2]
        assert shed_stats(framed.fleet) == shed_stats(direct.fleet)
        assert framed.fleet.checkpoint() == direct.fleet.checkpoint()
        stats = framed.fleet.stats()
        assert stats["shed_samples"] + stats["refused_samples"] > 0
        if max_total == 3:
            assert stats["refused_samples"] > 0

    def test_drain_fills_shard_then_edge_refuses(self):
        # Tick 1 leaves shard 0 one slot; tick 2's two new shard-0
        # beacons both pass the edge and the drain refuses the second.
        def beacons_at(k):
            return [A[0]] + C[:2] if k == 1 else A[:3] + C[:2]
        framed, direct, edge = twin_runs(beacons_at, 4)
        assert edge[1] == {}  # tick 2: both new beacons passed the edge
        assert edge[2] == {A[2]: 3}  # tick 3: shard 0 is full
        assert framed.fleet.shard_of(A[1]) == 0
        assert framed.fleet.shard_of(A[2]) is None
        assert shed_stats(framed.fleet) == shed_stats(direct.fleet)
        assert framed.fleet.checkpoint() == direct.fleet.checkpoint()

    def test_migrated_beacon_follows_its_pin(self):
        # After tick 1, C[0] moves to shard 0, filling it: its own frames
        # stay admitted (it has a session), the new shard-0 beacon A[1]
        # is refused, and the slot C[0] left on shard 1 admits C[2].
        def before(fleet, k):
            if k == 2:
                fleet.migrate(C[0], 0)

        def beacons_at(k):
            return [A[0]] + C[:2] if k == 1 else A[:2] + C[:3]
        framed, direct, edge = twin_runs(beacons_at, 4, before=before)
        assert framed.fleet.router.pins == {C[0]: 0}
        assert edge[1] == {A[1]: 3}
        assert framed.fleet.shard_of(C[0]) == 0
        assert framed.fleet.shard_of(C[2]) == 1
        assert shed_stats(framed.fleet) == shed_stats(direct.fleet)
        assert framed.fleet.checkpoint() == direct.fleet.checkpoint()

    def test_refused_frame_counts_rejected_and_late_rows(self):
        async def go():
            gw = IngestionGateway(GatewayConfig(late_horizon_s=1.5),
                                  overload_fleet())
            client = SimulatedClient("c0", gw, ack_timeout_s=0.5)
            for seq, beacon in enumerate(A[:2]):
                assert await client.send_frame({
                    "type": "scan", "seq": seq, "beacon": beacon,
                    "samples": rows(1, beacon)})
            gw.tick(1.0)
            gw.tick(2.0)  # horizon: 0.5
            frame = {"type": "scan", "seq": 2, "beacon": A[2], "samples": [
                [float("nan"), -60.0, 37], [0.2, -61.0, 37],
                [1.9, -62.0, 37], [1.95, -63.0, 37]]}
            assert screen_scan_rows(frame, 0.5) == (2, 1, 1)
            assert await client.send_frame(frame)
            assert gw.counters["sample_rejected"] == 1
            assert gw.counters["sample_late"] == 1
            assert gw.refused == {A[2]: 2}
            assert A[2] not in gw.scan_queues  # nothing was built
            assert client.stats.taken == 6
            gw.tick(3.0)
            await client.close()
            await gw.drain_clients()
            return gw
        gw = run(go())
        assert gw.fleet.workers[0].service.shed_samples == 2
        assert gw.fleet.workers[0].service.sessions_shed == 1
        assert gw.refused == {}

    def test_refused_ack_names_the_reason(self):
        async def go():
            gw = IngestionGateway(GatewayConfig(), overload_fleet(1))
            ep = gw.connect("c0")
            chunks = []
            for frame in (
                {"type": "hello", "client": "c0", "proto": PROTO_VERSION},
                {"type": "scan", "seq": 0, "beacon": A[0],
                 "samples": rows(1, A[0])},
            ):
                await ep.send(encode_for(frame))
                chunks.append(await ep.recv())
            gw.tick(1.0)
            await ep.send(encode_for(
                {"type": "scan", "seq": 1, "beacon": C[0],
                 "samples": rows(2, C[0])}))
            chunks.append(await ep.recv())
            ep.close()
            await gw.drain_clients()
            return chunks
        chunks = run(go())
        # Each ack is one 16-byte binary frame.
        for ack in chunks[1:]:
            assert ack[4] == BINARY_VERSION and len(ack) == 4 + 16
        replies = [f for c in chunks for f in FrameDecoder().feed(c)]
        assert replies[1] == {"type": "ack", "seq": 0, "taken": 3}
        assert replies[2] == {"type": "ack", "seq": 1, "taken": 0,
                              "refused": "max_total_sessions"}

    def test_one_shed_signal_per_shard_per_tick(self):
        gw = IngestionGateway(GatewayConfig(), overload_fleet())
        sink = obs.add_sink(obs.CountingSink())
        try:
            _, edge = run(framed_run(gw, lambda k: A + C, 3))
        finally:
            obs.remove_sink(sink)
        # Tick 1 refuses A[2:] and C[2:] in the drain, ticks 2 and 3 at
        # the edge: one signal per shard per tick, n-weighted by samples,
        # and one per newly refused beacon.
        assert edge[1] == {b: 3 for b in A[2:] + C[2:]}
        assert sink.count("service.shed_samples") == 2 * 3
        assert sink.volume["service.shed_samples"] == 4 * 3 * 3
        assert sink.count("service.sessions_shed") == 4

    def test_operator_migration_window(self):
        # The one window where the edge and the drain decide differently:
        # A[2]'s frame is refused while shard 0 is full, then an operator
        # migration frees a slot before the tick. The edge refusal
        # stands (booked on shard 0); the drain twin admits A[2] at once.
        # A[2]'s next frame is admitted.
        def window(fleet, k):
            if k == 2:
                fleet.migrate(A[1], 1)

        def beacons_at(k):
            return A[:2] if k == 1 else A[:3]

        after_tick_2 = []

        def before(fleet, k):
            if k == 3:
                after_tick_2.append((fleet.shard_of(A[2]),
                                     fleet.stats()["shed_samples"]))
        framed = IngestionGateway(GatewayConfig(), overload_fleet())
        direct = IngestionGateway(GatewayConfig(), overload_fleet())
        run(framed_run(framed, beacons_at, 3, before, window))
        direct_run(direct, beacons_at, 3, before, window)
        assert after_tick_2 == [(None, 3), (0, 0)]
        assert framed.fleet.shard_of(A[2]) == 0  # the next frame passed


# -- the wire protocol ---------------------------------------------------------


async def wire_exchange(gw, frames, name="p", hello_proto=PROTO_VERSION):
    """``frames`` over a hand-driven connection; every reply."""
    ep = gw.connect(name)
    decoder = FrameDecoder()
    replies = []
    for frame in [{"type": "hello", "client": name, "proto": hello_proto},
                  *frames]:
        await ep.send(encode_for(frame))
        replies += decoder.feed(await ep.recv())
    await ep.send(encode_for({"type": "bye"}))
    ep.close()
    return replies


async def client_exchange(gw, frames, name="p"):
    """``frames`` through a :class:`SimulatedClient`; every reply."""
    client = SimulatedClient(name, gw, ack_timeout_s=0.5)
    replies = []
    read = client._read_reply

    async def spy(*deadline):
        reply = await read(*deadline)
        replies.append(reply)
        return reply
    client._read_reply = spy
    for frame in frames:
        assert await client.send_frame(frame)
    await client.close()
    return replies


def imu_rows(k):
    return [[s.timestamp, s.accel, s.gyro_z, s.mag_heading] for s in imu(k)]


NAN = float("nan")

#: Frames per tick: admitted, edge-refused and queue-capped beacons, rows
#: with a non-finite time or channel, late rows and a duplicate seq.
PHASES = [
    [{"type": "scan", "seq": 0, "beacon": A[0], "samples": rows(1, "a0")},
     {"type": "scan", "seq": 1, "beacon": A[1], "samples": rows(1, "a1")},
     {"type": "scan", "seq": 2, "beacon": A[2], "samples": [
         [NAN, -60.0, 37], [0.5, -61.0, NAN], [0.7, -62.0, 37]]},
     {"type": "imu", "seq": 3, "samples": imu_rows(1)},
     {"type": "scan", "seq": 0, "beacon": A[0], "samples": rows(1, "a0")}],
    [{"type": "scan", "seq": 4, "beacon": A[3], "samples": rows(2, "a3")},
     {"type": "scan", "seq": 5, "beacon": C[0], "samples": rows(2, "c0")},
     {"type": "scan", "seq": 6, "beacon": A[0], "samples": rows(2, "a0")},
     {"type": "imu", "seq": 7, "samples": imu_rows(2)}],
    [{"type": "scan", "seq": 8, "beacon": A[0], "samples": [
        [0.2, -60.0, 37], [2.5, -61.0, 38]]},
     {"type": "scan", "seq": 9, "beacon": A[3], "samples": [
         [0.2, -60.0, 37], [2.6, -61.0, 37], [NAN, -62.0, 37]]},
     {"type": "imu", "seq": 10, "samples": [[NAN, 0.5, 0.0, 0.0]]
      + imu_rows(3)}],
]


class TestProtocol2:
    """The one wire protocol: JSON control frames around the binary data
    frames and acks that protocol 2 introduced."""

    def test_wire_bytes_and_client_leave_the_same_gateway(self):
        async def go(exchange):
            gw = IngestionGateway(
                GatewayConfig(late_horizon_s=1.5, max_beacons=3),
                overload_fleet())
            acks, states = [], []
            for k, frames in enumerate(PHASES, start=1):
                acks += [r for r in await exchange(gw, frames)
                         if r["type"] == "ack"]
                await gw.drain_clients()
                states.append((
                    {b: q.items() for b, q in gw.scan_queues.items()},
                    gw.imu_queue.items(), dict(gw.refused),
                    dict(gw.counters)))
                states.append(snapshot_digest(gw.tick(float(k))))
            return acks, states, gw.fleet.checkpoint(), gw.task_errors
        wire_run = run(go(wire_exchange))
        client_run = run(go(client_exchange))
        assert client_run == wire_run
        acks, states, _, errors = wire_run
        assert errors == []
        assert {"type": "ack", "seq": 0, "taken": 0, "dup": True} in acks
        assert {a.get("refused") for a in acks} == {
            None, "max_sessions", "max_beacons"}
        counters = states[-2][3]
        assert counters["sample_rejected"] == 4
        assert counters["sample_late"] == 2

    @pytest.mark.parametrize("proto", [1, 2, 4])
    def test_welcome_with_an_unspoken_proto_fails_the_handshake(self, proto):
        async def go():
            gw = small_gateway()
            client = SimulatedClient("c0", gw, ack_timeout_s=0.2,
                                     max_attempts=1)

            replies = iter([{"type": "welcome", "proto": proto}])

            async def welcome():
                return next(replies, None)
            client._read_reply = welcome
            ok = await client.send_frame(PHASES[0][0])
            await client.close()
            await gw.drain_clients()
            return ok, client
        ok, client = run(go())
        assert not ok and client.stats.gave_up == 1
        assert client.stats.frames_sent == 0  # the handshake failed

    def test_replies_that_never_ack_do_not_extend_the_ack_wait(self):
        """A peer that answers every read with a welcome never acks the
        frame: each attempt's wait ends at one ``ack_timeout_s`` deadline
        and ``send_frame`` gives up instead of reading forever."""
        async def go():
            gw = small_gateway()
            client = SimulatedClient("c0", gw, ack_timeout_s=0.05,
                                     max_attempts=2)

            async def welcome(deadline=None):
                await asyncio.sleep(0.001)
                return {"type": "welcome", "proto": PROTO_VERSION}
            client._read_reply = welcome
            ok = await asyncio.wait_for(client.send_frame(PHASES[0][0]), 5)
            await client.close()
            await gw.drain_clients()
            return ok, client
        ok, client = run(go())
        assert not ok and client.stats.gave_up == 1
        assert client.stats.timeouts == 2
        assert client.stats.frames_sent == 2

    @pytest.mark.parametrize("proto", [1, 2])
    def test_hello_below_proto_version_is_refused(self, proto):
        async def go():
            gw = small_gateway()
            ep = gw.connect("c0")
            decoder = FrameDecoder()
            replies = []
            for frame in ({"type": "hello", "client": "c0", "proto": proto},
                          PHASES[0][0]):
                await ep.send(encode_for(frame))
                replies += decoder.feed(await ep.recv())
            assert await ep.recv() == b""  # the gateway hung up
            await gw.drain_clients()
            return gw, replies
        gw, replies = run(go())
        assert [(r["type"], r["code"], r["retryable"]) for r in replies] == [
            ("error", "invalid", False), ("error", "handshake", False)]
        assert gw.counters["frame_invalid"] == 1
        assert gw.counters["bad_handshake"] == 1
        assert "client_connected" not in gw.counters
        assert not gw.scan_queues

    @pytest.mark.parametrize("frame", [PHASES[0][0], PHASES[0][3]],
                             ids=["scan", "imu"])
    def test_a_json_data_frame_is_refused(self, frame):
        async def go():
            gw = small_gateway()
            ep = gw.connect("c0")
            decoder = FrameDecoder()
            replies = []
            for wire in (encode_for({"type": "hello", "client": "c0",
                                     "proto": PROTO_VERSION}),
                         encode_frame(frame)):
                await ep.send(wire)
                replies += decoder.feed(await ep.recv())
            ep.close()
            await gw.drain_clients()
            return gw, replies
        gw, replies = run(go())
        assert replies[0] == {"type": "welcome", "proto": PROTO_VERSION}
        assert replies[1]["code"] == "invalid"
        assert "must come binary" in replies[1]["detail"]
        assert gw.counters["frame_invalid"] == 1
        assert not gw.scan_queues and len(gw.imu_queue) == 0
        assert "sample_rejected" not in gw.counters

    def test_nonfinite_channel_is_a_rejected_sample(self):
        # A row [t, rssi, NaN] must not reach int(nan) and escape the
        # serve task untyped.
        async def go():
            gw = small_gateway()
            replies = await wire_exchange(gw, [
                {"type": "scan", "seq": 0, "beacon": "b1",
                 "samples": [[1.0, -60.0, NAN], [1.1, -61.0, 37],
                             [1.2, -62.0, float("inf")]]}])
            await gw.drain_clients()
            return gw, replies
        gw, replies = run(go())
        assert gw.task_errors == []
        assert "internal_error" not in gw.counters
        assert gw.counters["sample_rejected"] == 2
        assert replies[1] == {"type": "ack", "seq": 0, "taken": 1}
        frame = {"type": "scan", "seq": 0, "beacon": "b",
                 "samples": [[1.0, -60.0, NAN], [1.1, -61.0, 37]]}
        assert screen_scan_rows(frame, None) == (1, 1, 0)


class TestRefusalReplay:
    def test_replay_restores_refusal_counters(self, tmp_path):
        path = tmp_path / "overload.trace"
        gw = IngestionGateway(GatewayConfig(), overload_fleet(3))
        writer = TraceWriter(str(path), meta=trace_meta(gw))
        gw.tap = writer
        run(framed_run(gw, lambda k: A + C, 4))
        writer.close()
        meta, ticks = read_trace(str(path))
        assert "refused" not in ticks[0] and "refused" in ticks[1]
        again = _gateway_from_meta(meta, ScriptedPipeline)
        assert _redrive(again, ticks, str(path)).identical
        assert again.fleet.checkpoint() == gw.fleet.checkpoint()
        assert again.fleet.stats()["refused_samples"] > 0

    def test_trace_without_refusals_replays(self):
        # Written before edge admission existed: no `refused` key at all.
        from tests.test_legacy_solver_key import DATA
        path = DATA / "gateway_imu_window.trace"
        assert all("refused" not in r for r in read_trace(str(path))[1])
        assert replay(str(path)).identical

    def test_malformed_refusals_are_typed(self, tmp_path):
        path = tmp_path / "run.trace"
        record_small_run(path)
        meta, ticks = read_trace(str(path))
        ticks[0]["refused"] = ["b1", 3]
        with pytest.raises(DataQualityError, match="malformed"):
            _redrive(_gateway_from_meta(meta, ScriptedPipeline), ticks,
                     str(path))


# -- trace record/replay ------------------------------------------------------


def record_small_run(path, ticks=4):
    async def go():
        gw = small_gateway()
        writer = TraceWriter(str(path), meta=trace_meta(gw))
        gw.tap = writer
        client = SimulatedClient("c0", gw, ack_timeout_s=0.5)
        for k in range(ticks):
            t = float(k + 1)
            await client.send_frame(
                {"type": "scan", "seq": k, "beacon": "b1",
                 "samples": [[t - 0.5, -60.0 - k, 37],
                             [t - 0.2, -61.0, 38]]})
            gw.tick(t)
        await client.close()
        await gw.drain_clients()
        writer.close()
        gw.tap = None
    run(go())


class TestTrace:
    def test_replay_is_bit_identical(self, tmp_path):
        path = tmp_path / "run.trace"
        record_small_run(path)
        result = replay(str(path))
        assert result.identical
        assert result.ticks == 4 and result.samples == 8
        assert result.final_sessions == 1

    def test_corruption_truncation_reorder_all_refused(self, tmp_path):
        path = tmp_path / "run.trace"
        record_small_run(path)
        lines = path.read_text().splitlines()

        flipped = list(lines)
        assert "-60.0" in flipped[1]  # first tick record carries this RSSI
        flipped[1] = flipped[1].replace("-60.0", "-99.0", 1)
        (tmp_path / "flip.trace").write_text("\n".join(flipped) + "\n")
        with pytest.raises(DataQualityError):
            read_trace(str(tmp_path / "flip.trace"))

        (tmp_path / "trunc.trace").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataQualityError):
            read_trace(str(tmp_path / "trunc.trace"))

        swapped = list(lines)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        (tmp_path / "swap.trace").write_text("\n".join(swapped) + "\n")
        with pytest.raises(DataQualityError):
            read_trace(str(tmp_path / "swap.trace"))

    def test_trace_meta_rebuilds_topology(self, tmp_path):
        path = tmp_path / "run.trace"
        record_small_run(path)
        meta, ticks = read_trace(str(path))
        assert meta["fleet"]["n_shards"] == 2
        assert GatewayConfig.from_dict(meta["gateway"]).scan_queue == 64
        assert all(r["kind"] == "tick" for r in ticks)

    def test_missing_trace_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_trace(str(tmp_path / "nope.trace"))


# -- fault-fate planning ------------------------------------------------------


class TestTransportFaultModel:
    def test_plan_is_seed_deterministic(self):
        import numpy as np

        model = TransportFaultModel(drop_rate=0.3, corrupt_rate=0.2,
                                    stall_rate=0.1)
        a = model.plan(np.random.default_rng(5), 64)
        b = model.plan(np.random.default_rng(5), 64)
        assert a == b
        assert any(f.drop for f in a)

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            TransportFaultModel(drop_rate=1.0)
        with pytest.raises(ConfigurationError):
            TransportFaultModel(stall_s=float("nan"))

    def test_apply_reorder_swaps_adjacent(self):
        sched = [({"seq": 0}, FrameFate(reorder=True)),
                 ({"seq": 1}, FrameFate()),
                 ({"seq": 2}, FrameFate())]
        out = apply_reorder(sched)
        assert [f["seq"] for f, _ in out] == [1, 0, 2]


# -- satellite: session sort-or-refuse ingestion ------------------------------


class TestSessionIngestOrdering:
    def test_out_of_order_repaired_by_sorted_insert(self):
        session = scripted_session(["ok"])
        taken = session.ingest([
            RssiSample(10.0, -60.0, "b", 37),
            RssiSample(12.0, -61.0, "b", 37),
            RssiSample(11.0, -62.0, "b", 37),  # late straggler
        ])
        assert taken == 3
        assert [s.timestamp for s in session.rss] == [10.0, 11.0, 12.0]
        assert session.counters["ingest_reordered"] == 1

    def test_exact_duplicate_refused(self):
        session = scripted_session(["ok"])
        session.ingest([RssiSample(10.0, -60.0, "b", 37),
                        RssiSample(11.0, -61.0, "b", 37)])
        taken = session.ingest([RssiSample(10.0, -60.0, "b", 37)])
        assert taken == 0
        assert len(session.rss) == 2
        assert session.counters["ingest_duplicate"] == 1

    def test_same_instant_distinct_reading_kept(self):
        session = scripted_session(["ok"])
        session.ingest([RssiSample(10.0, -60.0, "b", 37)])
        # Same timestamp, different channel: a real reading, not a retry.
        assert session.ingest([RssiSample(10.0, -60.0, "b", 38)]) == 1
        assert len(session.rss) == 2
        assert session.counters.get("ingest_reordered", 0) == 0

    def test_ordering_counters_survive_checkpoint(self):
        session = scripted_session(["ok"])
        session.ingest([RssiSample(10.0, -60.0, "b", 37),
                        RssiSample(9.0, -61.0, "b", 37),
                        RssiSample(10.0, -60.0, "b", 37)])
        cp = json.loads(json.dumps(session.checkpoint()))
        from repro.service import TrackingSession
        restored = TrackingSession.restore(
            cp, pipeline_factory=session._pipeline_factory)
        assert restored.counters["ingest_reordered"] == 1
        assert restored.counters["ingest_duplicate"] == 1

    def test_solve_window_stays_sorted_under_disorder(self):
        # End-to-end: disorder in, monotone solve windows out.
        session = scripted_session(["ok"])
        import numpy as np
        rng = np.random.default_rng(3)
        ts = 10.0 + rng.permutation(20) * 0.1
        session.ingest([RssiSample(float(t), -60.0, "b", 37) for t in ts])
        stamps = [s.timestamp for s in session.rss]
        assert stamps == sorted(stamps)


# -- satellite: BoundedBuffer parity ------------------------------------------


class TestBufferShedParity:
    def test_extend_counts_each_shed_like_append(self):
        perf.reset()
        via_extend = BoundedBuffer(2, name="parity_e")
        via_extend.extend([1, 2, 3, 4, 5])
        via_append = BoundedBuffer(2, name="parity_a")
        for v in [1, 2, 3, 4, 5]:
            via_append.append(v)
        assert via_extend.shed == via_append.shed == 3
        assert via_extend.items() == via_append.items()
        assert perf.counter_value("service.shed.parity_e") == 3
        assert perf.counter_value("service.shed.parity_a") == 3

    def test_extend_events_per_item(self):
        class Tally:
            def __init__(self):
                self.n = 0

            def write(self, event):
                self.n += event.name == "service.shed.evt"

        sink = Tally()
        obs.add_sink(sink)
        try:
            buf = BoundedBuffer(1, name="evt")
            buf.extend([1, 2, 3, 4])
        finally:
            obs.remove_sink(sink)
        assert buf.shed == 3 and sink.n == 3

    def test_extend_returns_count(self):
        buf = BoundedBuffer(8, name="count")
        assert buf.extend(iter([1, 2, 3])) == 3

    def test_insert_by_keeps_order_and_sheds_oldest(self):
        buf = BoundedBuffer(3, name="ins")
        buf.extend([10, 20, 30])
        buf.insert_by(15, key=lambda v: v)
        assert buf.items() == [15, 20, 30]  # 10 shed as the oldest
        assert buf.shed == 1
        # A straggler older than everything buffered is itself the victim.
        buf.insert_by(1, key=lambda v: v)
        assert buf.items() == [15, 20, 30]
        assert buf.shed == 2

    def test_last_helper(self):
        buf = BoundedBuffer(2, name="last")
        assert buf.last() is None
        buf.extend([1, 2])
        assert buf.last() == 2
