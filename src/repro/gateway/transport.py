"""In-memory asyncio byte-stream transport for the ingestion gateway.

The gateway's contract is written against a *byte stream with flow
control*, not against sockets: each connection is a duplex pair of
:class:`Endpoint` objects moving raw byte chunks through per-direction
queues gated by a bounded in-flight window. A full window makes ``send``
await — that is the transport-level half of backpressure (a slow gateway
slows its clients down), with the application-level half (bounded
per-beacon queues that shed) layered above it by the gateway.

Going in-memory rather than TCP keeps the whole edge deterministic-ish and
testable on a hermetic CI host while preserving everything the protocol
layer cares about: arbitrary chunk fragmentation, half-open closes, EOF
mid-frame, stalls. The :class:`Endpoint` API is four methods
(``send``/``recv``/``close``/``at_eof``); an adapter over a real
``asyncio.StreamReader``/``StreamWriter`` pair is mechanical when a
deployment needs real sockets.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "ConnectionClosed",
    "Endpoint",
    "connected_pair",
]

#: Sentinel queued to signal a peer-side close (EOF after draining).
_EOF = object()


class ConnectionClosed(ConfigurationError):
    """Raised when sending on a connection whose peer has gone away.

    Subclasses :class:`~repro.errors.ConfigurationError` so it stays inside
    the typed-error taxonomy: a client writing into a closed pipe is an
    expected edge event, and every gateway/client loop handles it as one.
    """


class _Inbox:
    """One direction's queued chunks and the waiting reader's future."""

    __slots__ = ("chunks", "waiter")

    def __init__(self) -> None:
        self.chunks: Deque[object] = deque()
        self.waiter: Optional["asyncio.Future"] = None

    def put(self, item: object) -> None:
        self.chunks.append(item)
        waiter = self.waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)


def _expire(waiter: "asyncio.Future") -> None:
    if not waiter.done():
        waiter.set_exception(asyncio.TimeoutError())


class Endpoint:
    """One end of an in-memory duplex byte pipe.

    Flow control is a counted in-flight window per direction: ``send``
    acquires a slot (awaiting when the window is exhausted), the peer's
    ``recv`` releases it. The close sentinel bypasses the window so a
    synchronous :meth:`close` always lands.
    """

    def __init__(
        self,
        inbox: _Inbox,
        peer_inbox: _Inbox,
        send_window: "asyncio.Semaphore",
        recv_window: "asyncio.Semaphore",
        name: str = "",
    ):
        self.name = name
        self._inbox = inbox
        self._peer_inbox = peer_inbox
        self._send_window = send_window
        self._recv_window = recv_window
        self._closed = False          # this side called close()
        self._peer_closed = False     # EOF sentinel consumed from the inbox
        #: Bytes this endpoint has pushed to its peer (stats/debug).
        self.bytes_sent = 0
        self.bytes_received = 0

    async def send(self, data: bytes) -> None:
        """Queue one chunk to the peer; awaits while the window is full.

        Raises :class:`ConnectionClosed` once either side has closed —
        bytes written into a dead pipe would otherwise vanish silently,
        and silent loss is exactly what this edge exists to forbid.
        """
        if self._closed or self._peer_closed:
            raise ConnectionClosed(
                f"endpoint {self.name or id(self)} is closed"
            )
        await self._send_window.acquire()
        if self._closed or self._peer_closed:
            self._send_window.release()
            raise ConnectionClosed(
                f"endpoint {self.name or id(self)} closed while sending"
            )
        self._peer_inbox.put(bytes(data))
        self.bytes_sent += len(data)

    async def recv(self, timeout: Optional[float] = None) -> bytes:
        """The next chunk from the peer; ``b""`` exactly once at EOF.

        ``timeout`` bounds the wait in seconds (``None`` waits forever).
        On expiry :class:`asyncio.TimeoutError` is raised and nothing is
        consumed — the caller owns the slow-loris policy (count, event,
        refuse), this method only enforces the clock. The wait is one
        future plus, with a timeout, one ``loop.call_later`` timer: no
        task per call. A cancellation from outside propagates as
        :class:`asyncio.CancelledError`. One reader at a time.
        """
        if self._peer_closed:
            return b""
        inbox = self._inbox
        if not inbox.chunks:
            if inbox.waiter is not None:
                raise RuntimeError(
                    f"endpoint {self.name or id(self)} already has a "
                    f"waiting reader")
            loop = asyncio.get_running_loop()
            inbox.waiter = loop.create_future()
            timer = (None if timeout is None
                     else loop.call_later(timeout, _expire, inbox.waiter))
            try:
                await inbox.waiter
            finally:
                inbox.waiter = None
                if timer is not None:
                    timer.cancel()
        item = inbox.chunks.popleft()
        if item is _EOF:
            self._peer_closed = True
            return b""
        self._recv_window.release()
        self.bytes_received += len(item)
        return item

    def close(self) -> None:
        """Half-close: the peer drains what was already sent, then sees EOF."""
        if self._closed:
            return
        self._closed = True
        self._peer_inbox.put(_EOF)

    @property
    def closed(self) -> bool:
        return self._closed

    def at_eof(self) -> bool:
        """Has the peer closed and the inbox been drained to the sentinel?"""
        return self._peer_closed


def connected_pair(
    buffer_chunks: int = 64, name: str = ""
) -> Tuple[Endpoint, Endpoint]:
    """A fresh duplex connection: ``(client_end, server_end)``.

    ``buffer_chunks`` bounds each direction's in-flight chunk count — the
    transport window that turns a slow reader into a blocked writer.
    """
    if buffer_chunks < 1:
        raise ConfigurationError("buffer_chunks must be >= 1")
    a_inbox = _Inbox()   # chunks flowing B -> A
    b_inbox = _Inbox()   # chunks flowing A -> B
    window_ab = asyncio.Semaphore(buffer_chunks)
    window_ba = asyncio.Semaphore(buffer_chunks)
    client = Endpoint(a_inbox, b_inbox, window_ab, window_ba,
                      name=f"{name}:client")
    server = Endpoint(b_inbox, a_inbox, window_ba, window_ab,
                      name=f"{name}:server")
    return client, server
