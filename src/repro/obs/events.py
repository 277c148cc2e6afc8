"""Structured event records and the log core backing :mod:`repro.obs`.

An :class:`Event` is one JSON-serialisable fact about the running system:
what happened (``name``), where (``component``), how bad (``severity``),
when (a monotonic timestamp plus a process-wide sequence number) and every
structured detail the emitter attached (``fields``).

The :class:`EventLog` is deliberately tiny and dependency-free: a lock, a
sequence counter, and a list of sinks. Emission cost with a sink attached
is one dataclass construction plus one fan-out loop; while disabled or with
no sink attached it is a check that builds nothing, so the instrumented hot
paths can keep their events in production builds the same way
:mod:`repro.perf` keeps its timers.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["SEVERITIES", "Event", "EventLog"]

#: Recognised severities, mildest first. Unknown severities are coerced to
#: ``"info"`` rather than rejected — a telemetry layer must never raise out
#: of the code path it observes.
SEVERITIES: Tuple[str, ...] = ("debug", "info", "warning", "error")


def _jsonable(value: Any) -> Any:
    """Coerce one field value to something ``json.dumps`` accepts.

    Numpy scalars quack like Python numbers via ``item()``; everything else
    unserialisable is degraded to ``repr`` — a lossy record beats a crashed
    pipeline.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):
        try:
            return _jsonable(value.item())
        except (TypeError, ValueError):
            pass
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


@dataclass(frozen=True)
class Event:
    """One structured telemetry record.

    ``seq`` is a process-wide monotone counter (total emission order even
    when two events share a clock reading); ``t_mono`` the monotonic clock
    at emission, so durations between events are meaningful across system
    clock adjustments; ``wall`` the epoch time for humans correlating with
    external logs.
    """

    seq: int
    t_mono: float
    wall: float
    severity: str
    component: str
    name: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict with the fields flattened in."""
        out: Dict[str, Any] = {
            "seq": self.seq,
            "t_mono": self.t_mono,
            "wall": self.wall,
            "severity": self.severity,
            "component": self.component,
            "event": self.name,
        }
        for key, value in self.fields.items():
            out[str(key)] = _jsonable(value)
        return out

    def to_json(self) -> str:
        """One JSON-lines record (no trailing newline)."""
        return json.dumps(self.as_dict(), separators=(",", ":"),
                          sort_keys=False, default=repr)


class EventLog:
    """Thread-safe fan-out of :class:`Event` records to attached sinks.

    Sinks are anything with a ``write(event)`` method (see
    :mod:`repro.obs.sinks`). A sink that raises is detached — observability
    must degrade, never take the solve path down with it.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._seq = 0
        self._sinks: List[Any] = []

    # -- sink management -----------------------------------------------------

    def add_sink(self, sink: Any) -> Any:
        """Attach a sink; returns it for chaining."""
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Any) -> bool:
        """Detach a sink; True if it was attached."""
        with self._lock:
            try:
                self._sinks.remove(sink)
                return True
            except ValueError:
                return False

    def sinks(self) -> List[Any]:
        with self._lock:
            return list(self._sinks)

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        name: str,
        *,
        severity: str = "info",
        component: str = "repro",
        **fields: Any,
    ) -> Optional[Event]:
        """Record one event; returns it, or ``None`` while disabled or
        while no sink is attached (no event is built then)."""
        # Read without the lock: an event racing ``add_sink`` may miss the
        # new sink, which taking the lock here would not prevent either.
        if not (self.enabled and self._sinks):
            return None
        if severity not in SEVERITIES:
            severity = "info"
        with self._lock:
            self._seq += 1
            seq = self._seq
            sinks = list(self._sinks)
        event = Event(
            seq=seq,
            t_mono=time.monotonic(),
            wall=time.time(),
            severity=severity,
            component=component,
            name=name,
            fields=fields,
        )
        for sink in sinks:
            try:
                sink.write(event)
            except Exception:
                with self._lock:
                    if sink in self._sinks:
                        self._sinks.remove(sink)
        return event

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Detach every sink and restart the sequence counter."""
        with self._lock:
            self._sinks.clear()
            self._seq = 0
