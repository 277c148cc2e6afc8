"""The ingestion gateway: many concurrent clients, one deterministic fleet.

:class:`IngestionGateway` is the asyncio edge in front of a
:class:`~repro.fleet.TrackingFleet`. Each client connection is served by
its own task speaking the length-prefixed frame protocol of
:mod:`repro.gateway.frames` over a flow-controlled
:mod:`repro.gateway.transport` pipe; accepted samples land in **bounded
per-beacon queues** that shed visibly under pressure, and a synchronous
:meth:`IngestionGateway.tick` drains those queues into the fleet in a
deterministic order. The async edge absorbs all the arrival-time chaos —
what crosses into the fleet is a plain, ordered batch per tick, which is
exactly what makes record/replay (:mod:`repro.gateway.trace`) able to
reproduce a run bit-identically.

Degradation ladder, outermost first:

1. **Transport backpressure** — a slow gateway blocks its clients' sends
   (bounded in-flight window per connection).
2. **Connection policing** — handshake required, per-connection typed
   refusal budget, read timeout for slow-loris clients, poisoned decoder
   ⇒ hang up. Every hangup is counted and evented.
3. **Frame admission** — schema validation, per-client duplicate ``seq``
   suppression (idempotent ack, so at-least-once clients are safe),
   reordered ``seq`` repair, then the fleet's one admission rule
   (:meth:`~repro.fleet.TrackingFleet.admits`). A refused frame's rows
   are only counted, never built into samples or queued: the frame is
   acked ``{"taken": 0, "refused": <reason>}`` and its samples are booked
   once per shard at the next tick. Last, the gateway's own
   ``max_beacons`` queue cap. A ``held`` envelope's folded scan frames
   take this same path one by one (:meth:`IngestionGateway._ingest_scan`),
   answered by one ack.
4. **Sample screening** — rows with a non-finite timestamp or channel
   (one rule, :mod:`repro.gateway.frames`) and samples older than the
   late horizon are refused per sample, counted per frame.
5. **Queue shedding** — per-beacon :class:`~repro.service.BoundedBuffer`
   drop-oldest, each shed a ``service.shed.gateway.scan`` signal.

Nothing in this module raises an untyped exception for anything a client
can put on the wire: every refusal or repair is a ``gateway.<name>``
:func:`repro.obs.signal` that also writes the ``counters`` ledger.
"""

from __future__ import annotations

import asyncio
import logging
import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set

from repro import obs, perf
from repro.errors import ConfigurationError, DataQualityError
from repro.fleet import TrackingFleet
from repro.gateway.frames import (
    MAX_FRAME_BYTES,
    PROTO_VERSION,
    FrameDecoder,
    encode_for,
    imu_samples,
    scan_samples,
    screen_scan_rows,
    validate_frame,
)
from repro.gateway.transport import ConnectionClosed, Endpoint, connected_pair
from repro.service.buffers import BoundedBuffer
from repro.service.session import SessionSnapshot
from repro.types import ImuSample, RssiSample

__all__ = ["GatewayConfig", "IngestionGateway"]

logger = logging.getLogger("repro.gateway")

#: Distinct client ids whose seq-dedup memory the gateway retains (LRU).
CLIENT_MEMORY = 1024


@dataclass(frozen=True)
class GatewayConfig:
    """Capacity and policing policy for one gateway instance.

    ``late_horizon_s`` mirrors the estimation window downstream: a sample
    older than ``last_tick - late_horizon_s`` can no longer influence any
    solve, so admitting it would only burn queue capacity — it is refused
    at the edge (counted, evented) instead of shed silently later.
    """

    max_frame_bytes: int = MAX_FRAME_BYTES
    scan_queue: int = 1024
    imu_queue: int = 8192
    max_clients: int = 64
    max_beacons: int = 512
    client_timeout_s: Optional[float] = 2.0
    max_frame_errors: int = 8
    late_horizon_s: float = 75.0
    seq_memory: int = 4096
    transport_window: int = 64

    def __post_init__(self) -> None:
        for name in ("max_frame_bytes", "scan_queue", "imu_queue",
                     "max_clients", "max_beacons", "max_frame_errors",
                     "seq_memory", "transport_window"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"{name} must be an int >= 1")
        if self.client_timeout_s is not None and not (
                math.isfinite(self.client_timeout_s)
                and self.client_timeout_s > 0):
            raise ConfigurationError(
                "client_timeout_s must be finite and > 0 (or None)")
        if not (math.isfinite(self.late_horizon_s)
                and self.late_horizon_s > 0):
            raise ConfigurationError("late_horizon_s must be finite and > 0")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_frame_bytes": self.max_frame_bytes,
            "scan_queue": self.scan_queue,
            "imu_queue": self.imu_queue,
            "max_clients": self.max_clients,
            "max_beacons": self.max_beacons,
            "client_timeout_s": self.client_timeout_s,
            "max_frame_errors": self.max_frame_errors,
            "late_horizon_s": self.late_horizon_s,
            "seq_memory": self.seq_memory,
            "transport_window": self.transport_window,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "GatewayConfig":
        if not isinstance(d, dict):
            raise DataQualityError("gateway config must be a JSON object")
        try:
            return cls(**d)
        except TypeError as exc:
            raise DataQualityError(f"bad gateway config: {exc}")


class _SeqMemory:
    """Bounded per-client memory of seen frame sequence numbers.

    Survives reconnects (it is keyed by client id, not connection), which
    is what makes retry-after-disconnect idempotent: the resent frame's
    seq is still remembered and acked without re-ingesting.
    """

    def __init__(self, maxlen: int):
        self.maxlen = maxlen
        self.max_seq = -1
        self._set: Set[int] = set()
        self._fifo: Deque[int] = deque()

    def seen(self, seq: int) -> bool:
        return seq in self._set

    def record(self, seq: int) -> None:
        """Remember ``seq``."""
        if seq > self.max_seq:
            self.max_seq = seq
        self._set.add(seq)
        self._fifo.append(seq)
        if len(self._fifo) > self.maxlen:
            self._set.discard(self._fifo.popleft())


class _ClientState:
    """Per-connection handshake/error bookkeeping."""

    __slots__ = ("client_id", "memory", "errors")

    def __init__(self) -> None:
        self.client_id: Optional[str] = None
        self.memory: Optional[_SeqMemory] = None
        self.errors = 0


class IngestionGateway:
    """Serves frame-protocol clients and feeds a fleet one tick at a time."""

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        fleet: Optional[TrackingFleet] = None,
    ):
        self.config = config or GatewayConfig()
        self.fleet = fleet or TrackingFleet()
        self.scan_queues: Dict[str, BoundedBuffer[RssiSample]] = {}
        self.imu_queue: BoundedBuffer[ImuSample] = BoundedBuffer(
            self.config.imu_queue, name="gateway.imu")
        #: The ``gateway.*`` signal ledger (refusals and repairs).
        self.counters: Dict[str, int] = {}
        #: Scan samples the fleet refused admission since the last tick,
        #: ``{beacon_id: samples}``; :meth:`tick` books them.
        self.refused: Dict[str, int] = {}
        self.active_clients = 0
        self.ticks = 0
        self.last_tick_t: Optional[float] = None
        #: Optional trace tap: any object with
        #: ``record_tick(t, scans, imu, snapshots, refused)`` (see
        #: gateway.trace).
        self.tap: Optional[Any] = None
        #: Untyped exceptions that escaped a serve task — always a bug;
        #: soak/CI assert this stays empty.
        self.task_errors: List[str] = []
        self._seq_memory: "OrderedDict[str, _SeqMemory]" = OrderedDict()
        self._tasks: Set["asyncio.Task"] = set()

    # -- connection edge -----------------------------------------------------

    def connect(self, name: str = "") -> Endpoint:
        """Open a connection; returns the client end.

        A gateway already at ``max_clients`` still answers: the serve task
        sends a retryable ``busy`` error and hangs up, so the refusal is
        explicit on the wire rather than an unbounded accept queue.
        """
        client_end, server_end = connected_pair(
            self.config.transport_window, name=name)
        admitted = self.active_clients < self.config.max_clients
        if admitted:
            self.active_clients += 1
        task = asyncio.ensure_future(self._serve(server_end, admitted))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return client_end

    async def drain_clients(self) -> None:
        """Wait for every serve task to finish (after clients close)."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def _serve(self, ep: Endpoint, admitted: bool) -> None:
        state = _ClientState()
        try:
            if not admitted:
                obs.signal("gateway.client_rejected", ledger=self.counters,
                           severity="warning", reason="max_clients",
                           active=self.active_clients)
                await self._send(ep, state, {
                    "type": "error", "code": "busy",
                    "detail": "gateway at max_clients", "retryable": True,
                })
                return
            await self._serve_admitted(ep, state)
        except Exception as exc:  # noqa: BLE001 — contract violation, surfaced
            self.task_errors.append(
                f"{type(exc).__name__}: {exc} (client={state.client_id!r})")
            obs.signal("gateway.internal_error", ledger=self.counters,
                       severity="error", client=state.client_id,
                       error=type(exc).__name__)
        finally:
            ep.close()
            if admitted:
                self.active_clients -= 1

    async def _serve_admitted(self, ep: Endpoint, state: _ClientState) -> None:
        decoder = FrameDecoder(self.config.max_frame_bytes)
        while True:
            try:
                chunk = await ep.recv(self.config.client_timeout_s)
            except asyncio.TimeoutError:
                # Slow-loris / stalled client: refuse the connection, not
                # the process. The client may reconnect and resend.
                obs.signal("gateway.client_timeout", ledger=self.counters,
                           severity="warning", client=state.client_id,
                           pending_bytes=decoder.pending_bytes)
                await self._send(ep, state, {
                    "type": "error", "code": "timeout",
                    "detail": "no bytes within client_timeout_s",
                    "retryable": True,
                })
                return
            if chunk == b"":
                try:
                    decoder.eof()
                except DataQualityError as exc:
                    obs.signal("gateway.frame_truncated", ledger=self.counters,
                               severity="warning", client=state.client_id,
                               detail=str(exc))
                else:
                    obs.signal("gateway.client_disconnected",
                               ledger=self.counters, client=state.client_id,
                               frames=decoder.frames_decoded)
                return
            try:
                frames = decoder.feed(chunk)
            except DataQualityError as exc:
                # Framing cannot resynchronize after corruption: count,
                # answer, hang up.
                obs.signal("gateway.frame_malformed", ledger=self.counters,
                           severity="warning", client=state.client_id,
                           detail=str(exc))
                await self._send(ep, state, {
                    "type": "error", "code": "bad-frame",
                    "detail": str(exc), "retryable": True,
                })
                return
            for frame in frames:
                if not await self._handle_frame(ep, state, frame):
                    return

    # -- frame handling ------------------------------------------------------

    async def _handle_frame(
        self, ep: Endpoint, state: _ClientState, frame: Dict[str, Any]
    ) -> bool:
        """Process one decoded frame; returns False to end the connection."""
        try:
            ftype = validate_frame(frame)
        except DataQualityError as exc:
            state.errors += 1
            obs.signal("gateway.frame_invalid", ledger=self.counters,
                       severity="warning", client=state.client_id,
                       detail=str(exc), errors=state.errors)
            await self._send(ep, state, {
                "type": "error", "code": "invalid",
                "detail": str(exc), "retryable": False,
            })
            if state.errors >= self.config.max_frame_errors:
                obs.signal("gateway.client_expelled", ledger=self.counters,
                           severity="warning", client=state.client_id,
                           errors=state.errors)
                return False
            return True

        if state.client_id is None and ftype != "hello":
            obs.signal("gateway.bad_handshake", ledger=self.counters,
                       severity="warning", client=None, got=ftype)
            await self._send(ep, state, {
                "type": "error", "code": "handshake",
                "detail": "first frame must be hello", "retryable": False,
            })
            return False

        if ftype == "hello":
            state.client_id = str(frame["client"])
            state.memory = self._memory_for(state.client_id)
            obs.signal("gateway.client_connected", ledger=self.counters,
                       client=state.client_id)
            # An offer above the one protocol is welcomed with it.
            return await self._send(ep, state, {
                "type": "welcome", "proto": PROTO_VERSION,
            })
        if ftype == "bye":
            obs.signal("gateway.client_bye", ledger=self.counters,
                       client=state.client_id)
            return False
        assert state.memory is not None
        if ftype == "scan":
            return await self._send(ep, state, self._ingest_scan(
                state, frame, state.memory.max_seq))
        if ftype == "held":
            return await self._handle_held(ep, state, frame)
        return await self._handle_imu(ep, state, frame)

    def _fresh(self, state: _ClientState, seq: int, after: int) -> bool:
        """Remember a data frame's ``seq``; False for a duplicate.

        At-least-once delivery: the retry of an already-ingested frame is
        acked idempotently, never re-ingested. A seq below ``after`` is
        signalled as reordered.
        """
        memory = state.memory
        assert memory is not None
        if memory.seen(seq):
            obs.signal("gateway.frame_duplicate", ledger=self.counters,
                       severity="debug", client=state.client_id, seq=seq)
            return False
        memory.record(seq)
        if seq < after:
            obs.signal("gateway.frame_reordered", ledger=self.counters,
                       severity="debug", client=state.client_id, seq=seq,
                       max_seq=memory.max_seq)
        return True

    async def _handle_held(
        self, ep: Endpoint, state: _ClientState, frame: Dict[str, Any]
    ) -> bool:
        """Ingest a held envelope's folded scan frames one by one, as if
        each came alone, and answer them with one ack: the rows taken and
        the folded beacons admitted. The client folds frames on purpose,
        out of their seq order, so a folded frame counts as reordered only
        against the envelope's own earlier frames."""
        taken, after = 0, -1
        admitted: Dict[str, None] = {}
        for folded in frame["frames"]:
            ack = self._ingest_scan(state, folded, after)
            after = max(after, folded["seq"])
            taken += ack["taken"]
            if "refused" not in ack and "dup" not in ack:
                admitted[folded["beacon"]] = None
        return await self._send(ep, state, {
            "type": "ack", "seq": frame["seq"], "taken": taken,
            "admitted": list(admitted),
        })

    def _ingest_scan(self, state: _ClientState, frame: Dict[str, Any],
                     after: int) -> Dict[str, Any]:
        """Ingest one scan frame, alone or folded; returns its ack.

        ``after`` is the seq below which the frame counts as reordered.
        """
        seq = frame["seq"]
        if not self._fresh(state, seq, after):
            return {"type": "ack", "seq": seq, "taken": 0, "dup": True}
        beacon = str(frame["beacon"])
        reason = self.fleet.admits(beacon)
        if reason is not None:
            # Refused by the fleet's admission rule: count the rows the
            # edge would have screened, build no samples, and book the
            # rest once at the next tick. Acked, so the client stops
            # resending (a retry cannot help), but says why.
            n, rejected, late = screen_scan_rows(frame, self._horizon())
            self._count_screened(state, seq, rejected, late)
            if n:
                self.refused[beacon] = self.refused.get(beacon, 0) + n
            return {"type": "ack", "seq": seq, "taken": 0, "refused": reason}
        samples, rejected = scan_samples(frame)
        self._count_screened(state, seq, rejected, 0)
        samples = self._screen_late(state, seq, samples)
        taken = 0
        refused: Optional[str] = None
        if samples:
            queue = self.scan_queues.get(beacon)
            if queue is None:
                if len(self.scan_queues) >= self.config.max_beacons:
                    # Edge-level admission: ack so the client stops
                    # resending (a retry cannot help), but say why.
                    obs.signal("gateway.admission_refused", n=len(samples),
                               ledger=self.counters, severity="warning",
                               client=state.client_id, beacon=beacon)
                    refused = "max_beacons"
                else:
                    queue = BoundedBuffer(self.config.scan_queue,
                                          name="gateway.scan")
                    self.scan_queues[beacon] = queue
            if queue is not None:
                taken = queue.extend(samples)
        ack: Dict[str, Any] = {"type": "ack", "seq": seq, "taken": taken}
        if refused is not None:
            ack["refused"] = refused
        return ack

    async def _handle_imu(
        self, ep: Endpoint, state: _ClientState, frame: Dict[str, Any]
    ) -> bool:
        seq = frame["seq"]
        assert state.memory is not None
        if not self._fresh(state, seq, state.memory.max_seq):
            return await self._send(ep, state, {
                "type": "ack", "seq": seq, "taken": 0, "dup": True,
            })
        samples, rejected = imu_samples(frame)
        self._count_screened(state, seq, rejected, 0)
        samples = self._screen_late(state, seq, samples)
        taken = self.imu_queue.extend(samples) if samples else 0
        return await self._send(ep, state, {
            "type": "ack", "seq": seq, "taken": taken,
        })

    def _horizon(self) -> Optional[float]:
        """Samples older than this are late (``None`` before a tick)."""
        if self.last_tick_t is None:
            return None
        return self.last_tick_t - self.config.late_horizon_s

    def _count_screened(self, state: _ClientState, seq: int,
                        rejected: int, late: int) -> None:
        """Signal a frame's non-finite-timestamp and late rows."""
        if rejected:
            obs.signal("gateway.sample_rejected", n=rejected,
                       ledger=self.counters, severity="warning",
                       client=state.client_id, seq=seq)
        if late:
            obs.signal("gateway.sample_late", n=late, ledger=self.counters,
                       severity="warning", client=state.client_id, seq=seq,
                       horizon=self._horizon())

    def _screen_late(self, state: _ClientState, seq: int, samples: list) -> list:
        """Refuse stragglers older than the estimation horizon."""
        horizon = self._horizon()
        if horizon is None or not samples:
            return samples
        fresh = [s for s in samples if s.timestamp >= horizon]
        self._count_screened(state, seq, 0, len(samples) - len(fresh))
        return fresh

    # -- the synchronous spine ----------------------------------------------

    def enqueue_scans(self, samples: List[RssiSample]) -> int:
        """Enqueue scans directly, bypassing the wire protocol.

        Same queue semantics as the framed path — the ``max_beacons`` cap
        applies and overflow sheds exactly as on the framed path — minus
        the per-connection layers (handshake, seq dedup, late screening)
        and the edge admission query: the fleet's drain admits these. This
        is the replay entry point: :func:`repro.gateway.trace.replay`
        drives *already-committed* batches back through the queues, and
        those cleared every edge check when they were recorded.
        """
        taken = 0
        for s in samples:
            queue = self.scan_queues.get(s.beacon_id)
            if queue is None:
                if len(self.scan_queues) >= self.config.max_beacons:
                    obs.signal("gateway.admission_refused", n=1,
                               ledger=self.counters, severity="warning",
                               client=None, beacon=s.beacon_id)
                    continue
                queue = BoundedBuffer(self.config.scan_queue,
                                      name="gateway.scan")
                self.scan_queues[s.beacon_id] = queue
            queue.append(s)
            taken += 1
        return taken

    def enqueue_imu(self, samples: List[ImuSample]) -> int:
        """Enqueue IMU samples directly (replay / in-process producers)."""
        return self.imu_queue.extend(samples)

    def enqueue_refused(self, refused: Dict[str, int]) -> None:
        """Add ``{beacon_id: samples}`` to this tick's refusals (replay)."""
        for beacon, n in refused.items():
            self.refused[beacon] = self.refused.get(beacon, 0) + n

    def tick(self, t: float) -> Dict[str, SessionSnapshot]:
        """Book the tick's refusals, drain all queues into the fleet and
        advance it to time ``t``.

        The drain order is fully deterministic — refusals first, then
        beacons in sorted order, FIFO within each queue, then the IMU
        queue — so a recorded tick replays bit-identically regardless of
        the arrival interleaving that filled the queues.
        """
        if not isinstance(t, (int, float)) or not math.isfinite(t):
            raise ConfigurationError("tick time must be finite")
        refused, self.refused = self.refused, {}
        scans: List[RssiSample] = []
        for beacon in sorted(self.scan_queues):
            queue = self.scan_queues[beacon]
            scans.extend(queue.items())
            queue.clear()
        imu = self.imu_queue.items()
        self.imu_queue.clear()
        if refused:
            self.fleet.book_refusals(refused)
        if scans:
            self.fleet.ingest_scans(scans)
        if imu:
            self.fleet.ingest_imu(imu)
        snapshots = self.fleet.tick(float(t))
        self.ticks += 1
        self.last_tick_t = float(t)
        perf.count("gateway.ticks")
        if self.tap is not None:
            self.tap.record_tick(float(t), scans, imu, snapshots, refused)
        return snapshots

    def stats(self) -> Dict[str, Any]:
        """Edge counters, queue depths and the fleet's own aggregates."""
        return {
            "counters": dict(self.counters),
            "ticks": self.ticks,
            "active_clients": self.active_clients,
            "known_clients": len(self._seq_memory),
            "scan_queues": {
                b: q.stats() for b, q in sorted(self.scan_queues.items())
            },
            "imu_queue": self.imu_queue.stats(),
            "queue_shed": (
                sum(q.shed for q in self.scan_queues.values())
                + self.imu_queue.shed
            ),
            "task_errors": list(self.task_errors),
            "fleet": self.fleet.stats(),
        }

    # -- internals -----------------------------------------------------------

    def _memory_for(self, client_id: str) -> _SeqMemory:
        memory = self._seq_memory.get(client_id)
        if memory is None:
            memory = _SeqMemory(self.config.seq_memory)
            self._seq_memory[client_id] = memory
            if len(self._seq_memory) > CLIENT_MEMORY:
                evicted, _ = self._seq_memory.popitem(last=False)
                obs.signal("gateway.client_memory_evicted",
                           ledger=self.counters, severity="debug",
                           client=evicted)
        else:
            self._seq_memory.move_to_end(client_id)
        return memory

    async def _send(
        self, ep: Endpoint, state: _ClientState, obj: Dict[str, Any]
    ) -> bool:
        """Best-effort reply; a vanished peer is counted, not raised."""
        try:
            await ep.send(encode_for(obj))
            return True
        except ConnectionClosed:
            obs.signal("gateway.reply_dropped", ledger=self.counters,
                       severity="debug", client=state.client_id,
                       frame_type=obj.get("type"))
            return False
