"""A protocol-complete simulated client with scripted transport faults.

:class:`SimulatedClient` is the gateway's sparring partner: it speaks the
frame protocol correctly — hello handshake offering the one protocol
(binary data frames and acks, and held envelopes), at-least-once delivery
with per-``seq`` acks, reconnect-and-resend after a dropped connection —
while a per-frame :class:`~repro.sim.faults.FrameFate` script makes it
misbehave in every transport-level way the hostile-input matrix names:

* **drop** — pretend to send, then wait for the ack that never comes;
  the ack timeout expires and the retry path delivers for real.
* **duplicate** — send the frame twice; the gateway's seq dedup must ack
  the second copy idempotently (``taken=0``).
* **corrupt** — flip the first payload byte: the binary version 0x02
  becomes 0xFD, which names no codec, so the refusal is deterministic;
  the gateway hangs up with a typed ``bad-frame`` error and the client
  reconnects and resends.
* **truncate** — send half the wire bytes and slam the connection; the
  gateway counts a truncated frame, the client reconnects and resends.
* **disconnect** — close cleanly after the ack, reconnecting lazily on
  the next send (the gateway's seq memory must survive the reconnect).
* **stall** — dribble the frame with a mid-frame pause (slow-loris); a
  stall longer than the gateway's read timeout triggers its typed
  timeout hangup, and again the retry path recovers.
* **reorder** — handled upstream by :func:`apply_reorder` swapping
  adjacent frames in the schedule, since a sequential-ack client cannot
  reorder within a single in-flight window.

:meth:`SimulatedClient.run_schedule` holds the beacons the gateway
refused: their scan frames are folded into held envelopes rather than
sent alone, until an ack says the fleet admits them. Each fate above then
applies to a whole envelope.

Retry pacing uses the deterministic jittered
:class:`~repro.service.ExponentialBackoff` (scaled down so soaks stay
fast); every recovery action lands in :class:`ClientStats` so the soak
can assert the fault matrix actually exercised each path.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, DataQualityError
from repro.gateway.frames import (
    PROTO_VERSION,
    FrameDecoder,
    encode_for,
    held_envelopes,
)
from repro.gateway.transport import ConnectionClosed, Endpoint
from repro.service.breaker import BackoffConfig, ExponentialBackoff
from repro.sim.faults import FrameFate

__all__ = ["ClientStats", "SimulatedClient", "apply_reorder"]

#: A clean fate: deliver the frame with no misbehaviour.
_CLEAN = FrameFate()


@dataclass
class ClientStats:
    """What one client did and endured over its lifetime."""

    frames_sent: int = 0
    acks: int = 0
    dup_acks: int = 0
    taken: int = 0
    retries: int = 0
    reconnects: int = 0
    timeouts: int = 0
    errors_received: int = 0
    refused: int = 0
    gave_up: int = 0
    #: Scan frames folded into held envelopes instead of sent alone.
    held_frames: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in (
            "frames_sent", "acks", "dup_acks", "taken", "retries",
            "reconnects", "timeouts", "errors_received", "refused",
            "gave_up", "held_frames",
        )}


def apply_reorder(
    schedule: List[Tuple[Dict[str, Any], FrameFate]],
) -> List[Tuple[Dict[str, Any], FrameFate]]:
    """Swap each reorder-fated frame with its successor (in place).

    The swap happens at the send schedule, before any wire activity —
    the client then delivers seqs out of order and the gateway's
    ``frame_reordered`` repair path must absorb it.
    """
    i = 0
    while i < len(schedule) - 1:
        if schedule[i][1].reorder:
            schedule[i], schedule[i + 1] = schedule[i + 1], schedule[i]
            i += 2
        else:
            i += 1
    return schedule


class SimulatedClient:
    """One at-least-once client connection driver against a gateway."""

    def __init__(
        self,
        client_id: str,
        gateway: Any,
        backoff: Optional[BackoffConfig] = None,
        ack_timeout_s: float = 0.25,
        max_attempts: int = 4,
        sleep_scale: float = 0.001,
    ):
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if not ack_timeout_s > 0:
            raise ConfigurationError("ack_timeout_s must be > 0")
        self.client_id = client_id
        self.gateway = gateway
        self.backoff = ExponentialBackoff(
            backoff or BackoffConfig(base_s=0.05, factor=2.0, max_s=1.0),
            key=client_id)
        self.ack_timeout_s = float(ack_timeout_s)
        self.max_attempts = int(max_attempts)
        #: Wall-sleep multiplier on backoff delays (soaks shrink it).
        self.sleep_scale = float(sleep_scale)
        self.stats = ClientStats()
        self._ep: Optional[Endpoint] = None
        self._connected_once = False
        self._decoder = FrameDecoder()
        self._pending: Deque[Dict[str, Any]] = deque()
        #: Beacons whose scans this connection folds into held envelopes.
        self._held: Set[str] = set()

    # -- connection lifecycle ------------------------------------------------

    async def _ensure_connected(self) -> None:
        if (self._ep is not None and not self._ep.closed
                and not self._ep.at_eof()):
            return
        if self._connected_once:
            self.stats.reconnects += 1
        self._connected_once = True
        self._ep = self.gateway.connect(name=self.client_id)
        self._decoder = FrameDecoder()
        self._pending.clear()
        self._held.clear()
        await self._ep.send(encode_for({
            "type": "hello", "client": self.client_id,
            "proto": PROTO_VERSION,
        }))
        reply = await self._read_reply()
        if reply is None or reply.get("type") != "welcome":
            # "busy" refusal or a vanished gateway: surface as a typed
            # condition for the retry loop.
            raise ConnectionClosed(
                f"client {self.client_id}: handshake answered with "
                f"{(reply or {}).get('type')!r}")
        proto = reply.get("proto")
        if type(proto) is not int or proto != PROTO_VERSION:
            raise ConnectionClosed(
                f"client {self.client_id}: welcomed with protocol "
                f"{proto!r}, which it does not speak")

    def _drop_connection(self) -> None:
        if self._ep is not None:
            self._ep.close()
            self._ep = None

    async def close(self) -> None:
        """Say bye and close cleanly (no reply expected)."""
        if self._ep is None or self._ep.closed or self._ep.at_eof():
            self._ep = None
            return
        try:
            await self._ep.send(encode_for({"type": "bye"}))
        except ConnectionClosed:
            pass
        self._drop_connection()

    # -- the at-least-once send loop -----------------------------------------

    async def send_frame(
        self, frame: Dict[str, Any], fate: FrameFate = _CLEAN
    ) -> bool:
        """Deliver one frame until acked (or attempts are exhausted).

        Returns True once the gateway acked the frame's seq. The scripted
        ``fate`` misbehaviours fire on the *first* attempt only — retries
        deliver cleanly, which is exactly how a real lossy link recovers.
        A non-retryable refusal stops immediately: resending a frame the
        gateway rejected by policy cannot help.
        """
        return await self._deliver(frame, fate) is not None

    async def _deliver(
        self, frame: Dict[str, Any], fate: FrameFate
    ) -> Optional[Dict[str, Any]]:
        """:meth:`send_frame`'s loop; returns the frame's ack, or None."""
        seq = frame["seq"]
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                self.stats.retries += 1
                delay = self.backoff.delay_for(attempt - 1)
                await asyncio.sleep(delay * self.sleep_scale)
            acting = fate if attempt == 1 else _CLEAN
            try:
                await self._ensure_connected()
                await self._transmit(frame, acting)
                if acting.truncate:
                    # Mid-frame slam: no ack can come; reconnect+retry.
                    self._drop_connection()
                    continue
                status, ack = await self._await_ack(seq)
            except (asyncio.TimeoutError, ConnectionClosed,
                    DataQualityError):
                # Handshake timed out, peer hung up, or the reply stream
                # was unreadable: reconnect on the next attempt.
                self._drop_connection()
                continue
            if status == "ack":
                if acting.duplicate:
                    # The idempotency probe: resend and expect a dup-ack.
                    try:
                        await self._transmit(frame, _CLEAN)
                        await self._await_ack(seq)
                    except (asyncio.TimeoutError, ConnectionClosed):
                        self._drop_connection()
                if acting.disconnect:
                    await self.close()
                return ack
            if status == "refused":
                return None
            self._drop_connection()
        self.stats.gave_up += 1
        return None

    async def _transmit(
        self, frame: Dict[str, Any], fate: FrameFate
    ) -> None:
        """Put (a possibly sabotaged) frame on the wire."""
        assert self._ep is not None
        if fate.drop:
            return
        wire = encode_for(frame)
        if fate.corrupt:
            sabotaged = bytearray(wire)
            # First payload byte: 0x02 ^ 0xff = 0xfd names no codec — the
            # refusal is deterministic.
            sabotaged[4] ^= 0xFF
            wire = bytes(sabotaged)
        if fate.truncate:
            await self._ep.send(wire[:max(4, len(wire) // 2)])
            self.stats.frames_sent += 1
            return
        if fate.stall_s > 0:
            half = len(wire) // 2
            await self._ep.send(wire[:half])
            await asyncio.sleep(fate.stall_s)
            await self._ep.send(wire[half:])
        else:
            await self._ep.send(wire)
        self.stats.frames_sent += 1

    async def _await_ack(
        self, seq: int
    ) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Read replies until ``seq`` resolves or ``ack_timeout_s`` passes.

        Returns the status and, for ``"ack"``, the ack. The other
        statuses are ``"refused"`` (non-retryable error), ``"error"``
        (retryable error — the gateway is about to hang up),
        ``"timeout"`` and ``"eof"``. The whole wait has one deadline:
        replies that do not resolve ``seq`` (welcomes, unknown types,
        straggler acks) do not extend it.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.ack_timeout_s
        while True:
            try:
                if loop.time() >= deadline:
                    raise asyncio.TimeoutError
                reply = await self._read_reply(deadline)
            except asyncio.TimeoutError:
                self.stats.timeouts += 1
                return "timeout", None
            if reply is None:
                return "eof", None
            rtype = reply.get("type")
            if rtype == "error":
                self.stats.errors_received += 1
                if not reply.get("retryable", False):
                    self.stats.refused += 1
                    return "refused", None
                return "error", None
            if rtype == "ack":
                if reply.get("seq") != seq:
                    # A straggler ack (e.g. from an earlier duplicate):
                    # keep reading for ours.
                    continue
                self.stats.acks += 1
                if reply.get("dup"):
                    self.stats.dup_acks += 1
                self.stats.taken += int(reply.get("taken", 0))
                return "ack", reply
            # welcome or unknown reply type: keep reading.

    async def _read_reply(
        self, deadline: Optional[float] = None,
    ) -> Optional[Dict[str, Any]]:
        """The next gateway frame (buffered or from the wire); None at EOF.

        Raises :class:`asyncio.TimeoutError` when none completes by
        ``deadline`` (event-loop time; default ``ack_timeout_s`` from now).
        """
        if self._pending:
            return self._pending.popleft()
        assert self._ep is not None
        loop = asyncio.get_running_loop()
        if deadline is None:
            deadline = loop.time() + self.ack_timeout_s
        while True:
            chunk = await self._ep.recv(deadline - loop.time())
            if chunk == b"":
                self._drop_connection()
                return None
            frames = self._decoder.feed(chunk)
            if frames:
                self._pending.extend(frames[1:])
                return frames[0]

    async def run_schedule(
        self,
        schedule: Sequence[Tuple[Dict[str, Any], FrameFate]],
    ) -> ClientStats:
        """Deliver a whole scripted schedule (reorder fates pre-applied).

        A refusal ack puts the frame's beacon on hold for the rest of the
        connection. A held beacon's scan frames are not sent alone: they
        are folded, in schedule order, into held envelopes
        (:func:`~repro.gateway.frames.held_envelopes`) within the gateway's
        ``max_frame_bytes``, sent before the run returns, each under the
        fate of its last folded frame; a frame too large to fit in an
        envelope goes alone. An ack that names a folded beacon admitted
        ends its hold.
        """
        folded: List[Dict[str, Any]] = []
        fates: List[FrameFate] = []
        # A beacon folded once stays folded for the run, also when a
        # reconnect ends its hold: its frames must reach the gateway in
        # schedule order.
        folding: Set[str] = set()
        for frame, fate in apply_reorder(list(schedule)):
            if frame["type"] == "scan" and (frame["beacon"] in self._held
                                            or frame["beacon"] in folding):
                folding.add(frame["beacon"])
                folded.append(frame)
                fates.append(fate)
                continue
            ack = await self._deliver(frame, fate)
            if ack is not None and "refused" in ack:
                self._held.add(frame["beacon"])
        self.stats.held_frames += len(folded)
        last = -1
        for out in held_envelopes(folded, self.gateway.config.max_frame_bytes):
            last += len(out["frames"]) if out["type"] == "held" else 1
            ack = await self._deliver(out, fates[last])
            if ack is None:
                continue
            if out["type"] == "held":
                self._held.difference_update(ack["admitted"])
            elif "refused" not in ack and not ack.get("dup"):
                self._held.discard(out["beacon"])
        return self.stats
