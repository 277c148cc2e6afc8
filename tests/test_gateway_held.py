"""A client holds the beacons the fleet refused.

:meth:`SimulatedClient.run_schedule` folds a held beacon's scan frames
into one ``held`` envelope per run instead of sending them alone, and the
gateway ingests each folded frame through the same code as a lone one.
``send_frame`` never holds, so a ``send_frame`` loop over the same
schedule sends every frame alone.
These tests serve each schedule both ways and require the same per-tick
snapshot digests, the same refusal bookings and the same fleet counters,
also when a migration ends a hold, when a reconnect ends one in the
middle of a run, when the gateway's frame limit is small, and when the
transport mangles the envelope.
"""

from __future__ import annotations

import pytest

from repro.gateway import (
    FrameDecoder,
    GatewayConfig,
    IngestionGateway,
    SimulatedClient,
    apply_reorder,
    encode_for,
)
from repro.gateway.trace import snapshot_digest
from repro.sim.faults import FrameFate

from tests.test_gateway import (
    NAN,
    A,
    C,
    imu,
    overload_fleet,
    rows,
    run,
    shed_stats,
)

CLEAN = FrameFate()


def schedule_for(k, beacons, seq):
    """Tick ``k``'s scan frames for ``beacons``, numbered from ``seq``."""
    return [({"type": "scan", "seq": seq + i, "beacon": b,
              "samples": rows(k, b)}, CLEAN)
            for i, b in enumerate(beacons)]


async def scheduled_run(gw, schedules, held, before=None, sends=None):
    """Serve each tick's schedule, then tick: through ``run_schedule``
    when ``held``, else frame by frame through ``send_frame``. Returns per
    tick the snapshot digest and the refusals the edge made, and the
    client."""
    client = SimulatedClient("c0", gw, ack_timeout_s=0.5)
    if sends is not None:
        deliver = client._deliver

        async def spy(frame, fate):
            sends.append(frame)
            return await deliver(frame, fate)
        client._deliver = spy
    digests, edge = [], []
    for k, schedule in enumerate(schedules, start=1):
        if before is not None:
            before(gw.fleet, k)
        if held:
            await client.run_schedule(schedule)
        else:
            for frame, fate in apply_reorder(list(schedule)):
                await client.send_frame(frame, fate)
        edge.append(dict(gw.refused))
        gw.enqueue_imu(imu(k))
        digests.append(snapshot_digest(gw.tick(float(k))))
    await client.close()
    await gw.drain_clients()
    assert gw.task_errors == []
    return digests, edge, client


def schedules_of(beacons_at, ticks):
    out, seq = [], 0
    for k in range(1, ticks + 1):
        out.append(schedule_for(k, beacons_at(k), seq))
        seq += len(out[-1])
    return out


def alone_and_held(schedules, config=None, max_total=None, before=None,
                   sends=None):
    """The same schedules with every frame alone and with holds; both
    gateways and the holding client."""
    gws, runs = [], []
    for held in (False, True):
        gw = IngestionGateway(config or GatewayConfig(),
                              overload_fleet(max_total))
        runs.append(run(scheduled_run(gw, schedules, held, before,
                                      sends if held else None)))
        gws.append(gw)
    (d2, e2, c2), (d3, e3, c3) = runs
    assert d3 == d2
    assert e3 == e2
    assert shed_stats(gws[1].fleet) == shed_stats(gws[0].fleet)
    assert gws[1].fleet.checkpoint() == gws[0].fleet.checkpoint()
    assert c3.stats.taken == c2.stats.taken
    assert c2.stats.held_frames == 0
    return gws, e3, c3


class TestHoldEqualsProtocol2:
    """TestEdgeAdmission's schedules, served through ``run_schedule`` and
    frame by frame, as protocol 2 sent them."""

    @pytest.mark.parametrize("max_total", [None, 4, 3])
    def test_edge_equals_drain(self, max_total):
        def beacons_at(k):
            return (A[:2] + C if k == 1 else A[:4] + C) if k < 3 else A + C
        (_, gw), edge, client = alone_and_held(
            schedules_of(beacons_at, 6), max_total=max_total)
        assert edge[0] == {} and edge[2]
        stats = gw.fleet.stats()
        assert stats["shed_samples"] + stats["refused_samples"] > 0
        # Refused on tick 3, folded from tick 4 on.
        assert client.stats.held_frames > 0

    def test_drain_fills_shard_then_edge_refuses(self):
        def beacons_at(k):
            return [A[0]] + C[:2] if k == 1 else A[:3] + C[:2]
        (_, gw), edge, client = alone_and_held(schedules_of(beacons_at, 5))
        assert edge[1] == {}
        assert edge[2] == {A[2]: 3} and edge[3] == {A[2]: 3}
        assert gw.fleet.shard_of(A[2]) is None
        # Held from tick 4 on: an envelope of one per tick.
        assert client.stats.held_frames == 2

    def test_refused_frame_counts_rejected_and_late_rows(self):
        # A[2] and A[3] are refused on tick 2 and held; tick 3 folds their
        # frames, which carry a non-finite time and late rows.
        dirty = [[NAN, -60.0, 37], [0.2, -61.0, 37], [2.9, -62.0, 37],
                 [2.95, -63.0, 37]]
        schedules = [
            schedule_for(1, A[:2], 0),
            schedule_for(2, A[:4], 2),
            [({"type": "scan", "seq": 6 + i, "beacon": b,
               "samples": dirty}, CLEAN) for i, b in enumerate(A[2:4])],
        ]
        gws, edge, client = alone_and_held(
            schedules, config=GatewayConfig(late_horizon_s=1.5))
        for gw in gws:
            assert gw.counters["sample_rejected"] == 2
            assert gw.counters["sample_late"] == 2
        assert edge[2] == {A[2]: 2, A[3]: 2}
        assert client.stats.held_frames == 2
        assert gws[1].fleet.workers[0].service.shed_samples == 3 + 3 + 2 + 2

    def test_a_small_frame_limit_books_as_frames_alone(self):
        # A 4,096-byte gateway limit: tick 3's four held frames of 60 rows
        # fold two to an envelope, and C[3]'s 170 rows (a 4,095-byte
        # payload) fit only alone, so that frame goes alone.
        def big(k, beacon, n):
            i = int(beacon[1:])
            return [[k - 0.9 + 0.004 * j, -60.0 - i, 37] for j in range(n)]
        schedules = schedules_of(
            lambda k: A[:2] + C[:2] if k == 1 else A + C, 4)
        schedules[2] = [
            ({**frame, "samples": big(3, frame["beacon"],
                                      170 if frame["beacon"] == C[3]
                                      else 60)}, fate)
            if frame["beacon"] in A[2:] + C[2:] else (frame, fate)
            for frame, fate in schedules[2]]
        sends = []
        _, edge, client = alone_and_held(
            schedules, config=GatewayConfig(max_frame_bytes=4096),
            sends=sends)
        assert edge[2] == {A[2]: 60, A[3]: 60, C[2]: 60, C[3]: 170}
        tick_3 = sends[8 + 4:8 + 4 + 7]
        assert [f["type"] for f in tick_3] == ["scan"] * 4 + [
            "held", "held", "scan"]
        assert [[g["beacon"] for g in f["frames"]]
                for f in tick_3[4:6]] == [A[2:], [C[2]]]
        assert tick_3[6]["beacon"] == C[3]
        assert client.stats.gave_up == 0
        assert client._held == set(A[2:] + C[2:])


class TestHoldEnds:
    def test_migration_frees_a_slot_for_a_held_beacon(self):
        # Both shards are full after tick 1; A[2] and C[2] are refused on
        # tick 2 and folded on tick 3. Before tick 4 a migration moves
        # A[1] off shard 0: the envelope's A[2] rows are taken that tick,
        # and from tick 5 on A[2] travels alone while C[2] stays held.
        def before(fleet, k):
            if k == 4:
                fleet.migrate(A[1], 1)

        def beacons_at(k):
            return A[:2] + C[:2] if k == 1 else A[:3] + C[:3]
        sends = []
        _, edge, client = alone_and_held(
            schedules_of(beacons_at, 6), before=before, sends=sends)
        assert edge[3] == {C[2]: 3}  # tick 4: A[2]'s folded rows were taken
        envelopes = [f for f in sends if f["type"] == "held"]
        assert [[g["beacon"] for g in f["frames"]] for f in envelopes] == [
            [A[2], C[2]], [A[2], C[2]], [C[2]], [C[2]]]
        alone = [f["beacon"] for f in sends if f["type"] == "scan"]
        # Ticks 5 and 6: A[2] alone among the five unheld beacons.
        assert alone[-2 * 5:].count(A[2]) == 2
        assert client.stats.held_frames == 2 + 2 + 1 + 1
        assert C[2] in client._held and A[2] not in client._held

    def test_a_reconnect_mid_run_keeps_a_folded_beacons_order(self):
        # A[2] is held from tick 2; a migration before tick 3 frees its
        # slot. Tick 3 carries two A[2] frames, and a disconnect fate on a
        # frame between them ends the connection and with it the hold. The
        # second frame still folds behind the first, so A[2]'s rows reach
        # its queue in schedule order, as when every frame goes alone.
        def before(fleet, k):
            if k == 3:
                fleet.migrate(A[1], 1)

        def early(k, beacon):
            i = int(beacon[1:])
            return [[k - 0.95 + 0.1 * j, -70.0 - i, 37] for j in range(3)]
        schedules = schedules_of(
            lambda k: A[:2] + C[:2] if k == 1 else A[:3] + C[:2], 4)
        tick_3 = schedules[2]
        (a0, _), (a1, _), (a2, _), (c0, _), (c1, _) = tick_3
        schedules[2] = [
            ({**a2, "seq": 90, "samples": early(3, A[2])}, CLEAN),
            (a0, FrameFate(disconnect=True)), (a1, CLEAN), (c0, CLEAN),
            (c1, CLEAN), (a2, CLEAN)]
        sends = []
        _, edge, client = alone_and_held(
            schedules, before=before, sends=sends)
        assert edge[1] == {A[2]: 3} and edge[2] == {}
        (envelope,) = [f for f in sends if f["type"] == "held"]
        assert [f["seq"] for f in envelope["frames"]] == [90, a2["seq"]]
        assert client.stats.reconnects == 1
        assert not client._held


# -- the transport mangles the envelope ---------------------------------------

FATES = {
    "drop": FrameFate(drop=True),
    "corrupt": FrameFate(corrupt=True),
    "truncate": FrameFate(truncate=True),
    "stall": FrameFate(stall_s=0.2),
    "disconnect": FrameFate(disconnect=True),
    "duplicate": FrameFate(duplicate=True),
}


def fated_schedules(fate):
    """Tick 3 folds four held frames; the last carries ``fate``."""
    def beacons_at(k):
        return A[:2] + C[:2] if k == 1 else A[:4] + C[:4]
    schedules = schedules_of(beacons_at, 4)
    frame, _ = schedules[2][-1]
    schedules[2][-1] = (frame, fate)
    return schedules


async def fated_run(schedules, client_timeout_s=1.0):
    gw = IngestionGateway(GatewayConfig(client_timeout_s=client_timeout_s),
                          overload_fleet())
    client = SimulatedClient("c0", gw, ack_timeout_s=0.3)
    digests = []
    for k, schedule in enumerate(schedules, start=1):
        await client.run_schedule(schedule)
        gw.enqueue_imu(imu(k))
        digests.append((dict(gw.refused), snapshot_digest(gw.tick(k))))
    await client.close()
    await gw.drain_clients()
    assert gw.task_errors == []
    return gw, client, digests


@pytest.mark.parametrize("name", sorted(FATES))
def test_a_mangled_envelope_books_as_a_clean_one(name):
    gw0, clean, digests0 = run(fated_run(fated_schedules(CLEAN)))
    # A stall past the gateway's read timeout is a slow-loris hangup.
    gw, client, digests = run(fated_run(
        fated_schedules(FATES[name]), 0.1 if name == "stall" else 1.0))
    assert digests == digests0
    assert shed_stats(gw.fleet) == shed_stats(gw0.fleet)
    assert gw.fleet.checkpoint() == gw0.fleet.checkpoint()
    assert clean.stats.held_frames == 4 + 4
    assert client.stats.held_frames >= 4 and client.stats.gave_up == 0
    if name == "duplicate":
        assert gw.counters["frame_duplicate"] == 4
    else:
        # The hold ends with the connection; the next one starts over.
        assert client.stats.reconnects >= 1


@pytest.mark.parametrize("proto", [2, 3])
def test_an_envelope_is_served_only_on_a_protocol_3_connection(proto):
    async def go():
        gw = IngestionGateway(GatewayConfig(), overload_fleet())
        ep = gw.connect("c0")
        decoder = FrameDecoder()
        await ep.send(encode_for(
            {"type": "hello", "client": "c0", "proto": proto}))
        replies = decoder.feed(await ep.recv())
        await ep.send(encode_for({"type": "held", "seq": 1, "frames": [
            {"type": "scan", "seq": i, "beacon": b, "samples": rows(1, b)}
            for i, b in enumerate(A[:2])]}))
        replies += decoder.feed(await ep.recv())
        ep.close()
        await gw.drain_clients()
        return gw, replies
    gw, replies = run(go())
    if proto == 3:
        assert replies[0] == {"type": "welcome", "proto": 3}
        assert replies[1] == {"type": "ack", "seq": 1, "taken": 6,
                              "admitted": A[:2]}
        assert sorted(gw.scan_queues) == sorted(A[:2])
    else:
        # A protocol-2 hello is refused: no welcome, no connection.
        assert [r["code"] for r in replies] == ["invalid", "handshake"]
        assert gw.counters["bad_handshake"] == 1 and not gw.scan_queues
