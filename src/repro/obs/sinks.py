"""Event sinks: where :class:`~repro.obs.events.Event` records go.

Three sinks cover the deployment shapes the ROADMAP cares about:

* :class:`RingBufferSink` — the always-on in-memory tail. Bounded (so a
  year-long service cannot leak), drainable (``obs.drain()``), and cheap
  enough to leave attached forever.
* :class:`JsonLinesSink` — the durable machine-readable log: one JSON
  object per line, flushed per event so a crash loses at most the record
  being written. This is the format ``python -m repro obs report`` reads.
* :class:`CountingSink` — name → count and n-weighted volume, for
  cross-checking signals against :mod:`repro.perf` counters
  (:func:`repro.obs.signal_parity`).
"""

from __future__ import annotations

import os
import threading
from collections import Counter, deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.obs.events import Event

__all__ = ["RingBufferSink", "JsonLinesSink", "CountingSink"]

#: Durability policies for :class:`JsonLinesSink` (mirrors
#: :class:`repro.gateway.TraceWriter`): ``"flush"`` survives a process
#: crash, ``"fsync"`` additionally survives an OS/power crash.
DURABILITY_POLICIES = ("flush", "fsync")


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 8192):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._events: Deque[Event] = deque(maxlen=self.capacity)
        self.total = 0  # every event ever written, including evicted ones

    def write(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)
            self.total += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def tail(self, n: Optional[int] = None) -> List[Event]:
        """The newest ``n`` events, oldest first (all when ``n`` is None)."""
        with self._lock:
            events = list(self._events)
        return events if n is None else events[-n:]

    def drain(self) -> List[Event]:
        """Remove and return every buffered event, oldest first."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
        return events

    def counts(self) -> Dict[str, int]:
        """Buffered event volume per event name."""
        return dict(Counter(e.name for e in self.tail()))

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


class JsonLinesSink:
    """Appends each event as one JSON line to a file.

    The file handle is opened lazily on the first event and flushed after
    every write; :meth:`close` is idempotent. ``durability="fsync"``
    additionally fsyncs each record, so the log survives an OS or power
    crash at the cost of one sync per event — the right policy when the
    event log *is* the incident record. A sink whose file becomes
    unwritable raises out of ``write`` — the
    :class:`~repro.obs.events.EventLog` responds by detaching it, so the
    solve path keeps running.
    """

    def __init__(self, path: Union[str, Path], durability: str = "flush"):
        if durability not in DURABILITY_POLICIES:
            raise ValueError(
                f"durability must be one of {DURABILITY_POLICIES}, "
                f"got {durability!r}")
        self.path = Path(path)
        self.durability = durability
        self._lock = threading.Lock()
        self._fh = None
        self.written = 0

    def write(self, event: Event) -> None:
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(event.to_json() + "\n")
            self._fh.flush()
            if self.durability == "fsync":
                os.fsync(self._fh.fileno())
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CountingSink:
    """Aggregates events by name and by severity only.

    ``by_name`` counts events; ``volume`` sums each event's ``n`` field
    (1 when absent or not an int), the amount a signal added to its perf
    counter.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.by_name: Dict[str, int] = {}
        self.by_severity: Dict[str, int] = {}
        self.volume: Dict[str, int] = {}

    def write(self, event: Event) -> None:
        n = event.fields.get("n", 1)
        if not isinstance(n, int) or isinstance(n, bool):
            n = 1
        with self._lock:
            self.by_name[event.name] = self.by_name.get(event.name, 0) + 1
            self.volume[event.name] = self.volume.get(event.name, 0) + n
            self.by_severity[event.severity] = (
                self.by_severity.get(event.severity, 0) + 1
            )

    def count(self, name: str) -> int:
        with self._lock:
            return self.by_name.get(name, 0)
