"""Event sinks: where :class:`~repro.obs.events.Event` records go.

A sink is anything with a ``write(event)`` method; events reach only the
sinks a caller attached (``obs.add_sink``). Two ship with the package:

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
from pathlib import Path
from typing import Dict, Union

from repro.obs.events import Event

__all__ = ["DURABILITY_POLICIES", "JsonLinesSink", "CountingSink"]

#: Write-durability policies shared by :class:`JsonLinesSink`,
#: :class:`repro.gateway.TraceWriter` and
#: :class:`repro.durability.CheckpointStore`: ``"flush"`` survives a
#: process crash, ``"fsync"`` additionally survives an OS/power crash.
DURABILITY_POLICIES = ("flush", "fsync")


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
