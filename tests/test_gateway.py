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
    encode_frame,
    read_trace,
    replay,
    trace_meta,
    validate_frame,
)
from repro.gateway.frames import scan_samples
from repro.service import ServiceConfig, SessionConfig
from repro.service.buffers import BoundedBuffer
from repro.sim.faults import FrameFate, TransportFaultModel
from repro.types import RssiSample

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
            {"type": "hello", "client": "c", "proto": 1},
            {"type": "scan", "seq": 0, "beacon": "b",
             "samples": [[1.0, -60.0, 37]]},
            {"type": "bye"},
        ]
        wire = b"".join(encode_frame(f) for f in frames)
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
                        "samples": [[1.0, -60.0, 37]]})
        bad = [
            {"type": "warp"},
            {"type": "hello", "client": "c", "proto": 99},
            {"type": "hello", "client": 3, "proto": 1},
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
