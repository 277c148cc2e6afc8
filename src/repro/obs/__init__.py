"""Structured observability for the LocBLE reproduction (:mod:`repro.obs`).

The silent-failure postmortems that motivated this layer all shared one
shape: a numeric fallback fired (``except LinAlgError: pass``, a capped
std, a shed sample) and nothing recorded that it had happened. ``repro.obs``
makes those paths loud without making them fragile — every fallback becomes
a typed, counted, JSON-serialisable event, and the emitting code path never
slows down meaningfully or crashes because of telemetry.

Like :mod:`repro.perf`, the module doubles as a process-wide facade::

    from repro import obs

    obs.signal("estimator.cov_fallbacks", severity="warning",
               status="rank-deficient", cond=3.2e17)

    with obs.span("pipeline.estimate", beacon="b0") as sp:
        result = locble.estimate(trace)
        sp.annotate(confidence=result.confidence)

A bounded :class:`~repro.obs.sinks.RingBufferSink` is always attached, so
the most recent events are inspectable (``obs.tail()``) even when nothing
was configured; extra sinks (a :class:`~repro.obs.sinks.JsonLinesSink`
file, a :class:`~repro.obs.sinks.CountingSink` for tests) attach and detach
freely. See ``docs/observability.md`` for the event schema and the list of
signals each component emits.

Every counted occurrence goes through :func:`signal`, the one call that
writes the owner's checkpointed ledger, the :mod:`repro.perf` counter and
the event under one name. :func:`emit` is the primitive beneath it and
beneath spans; nothing outside this package calls it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro import perf
from repro.obs.events import SEVERITIES, Event, EventLog
from repro.obs.provenance import FixProvenance
from repro.obs.sinks import CountingSink, JsonLinesSink, RingBufferSink
from repro.obs.spans import SpanHandle, current_trace_id, span_context

__all__ = [
    "SEVERITIES",
    "Event",
    "EventLog",
    "FixProvenance",
    "RingBufferSink",
    "JsonLinesSink",
    "CountingSink",
    "SpanHandle",
    "log",
    "ring",
    "emit",
    "signal",
    "signal_parity",
    "span",
    "current_trace_id",
    "add_sink",
    "remove_sink",
    "tail",
    "counts",
    "drain",
    "reset",
    "enable",
    "disable",
]

#: The process-wide event log every instrumented module emits into.
log = EventLog()

#: The always-attached in-memory tail (``tail()``, ``counts()``, ``drain()``).
ring: RingBufferSink = log.add_sink(RingBufferSink())


def emit(
    name: str,
    *,
    severity: str = "info",
    component: str = "repro",
    trace: Optional[str] = None,
    **fields: Any,
) -> Optional[Event]:
    """Emit one event on the default log.

    When no ``trace`` is given, the correlation id of the innermost open
    :func:`span` (if any) is attached automatically, so leaf emissions
    inside a solve inherit the solve's id for free.
    """
    if trace is None:
        trace = current_trace_id()
    return log.emit(
        name, severity=severity, component=component, trace=trace, **fields
    )


def signal(
    name: str,
    n: int = 1,
    *,
    ledger: Optional[Dict[str, int]] = None,
    severity: str = "info",
    **fields: Any,
) -> None:
    """Count ``n`` occurrences of ``name`` (``<family>.<key>``).

    Bumps ``ledger[<key>]`` when the owner passes its counter dict, the
    perf counter ``name``, and emits the event ``name`` with
    ``component=<family>`` and an ``n`` field. The ledger is checkpointed
    state, so it is written even while :func:`disable` or
    ``perf.disable()`` is on; those switches silence only the event and
    the perf counter.
    """
    family, _, key = name.partition(".")
    if ledger is not None:
        ledger[key] = ledger.get(key, 0) + n
    perf.count(name, n)
    if log.enabled:
        emit(name, severity=severity, component=family, n=n, **fields)


def signal_parity(
    sink: CountingSink, perf_before: Mapping[str, int]
) -> List[str]:
    """Every signal in ``sink`` whose volume differs from its perf delta.

    ``perf_before`` is ``perf.snapshot()["counters"]`` taken when ``sink``
    was attached. Each event but ``span`` comes from :func:`signal`, so
    over a window with both switches on the n-weighted event volume of a
    name equals the growth of its perf counter; the harnesses gate on an
    empty result.
    """
    failures = []
    for name, volume in sorted(sink.volume.items()):
        if name == "span":
            continue
        delta = perf.counter_value(name) - perf_before.get(name, 0)
        if volume != delta:
            failures.append(f"{name}: events {volume} != counter {delta}")
    return failures


def span(
    name: str, *, component: str = "repro", **fields: Any
) -> Iterator[SpanHandle]:
    """Open a timed, nesting span on the default log (see :mod:`.spans`)."""
    return span_context(log, name, component=component, **fields)


def add_sink(sink: Any) -> Any:
    """Attach a sink to the default log; returns the sink."""
    return log.add_sink(sink)


def remove_sink(sink: Any) -> bool:
    """Detach a sink from the default log."""
    return log.remove_sink(sink)


def tail(n: Optional[int] = None) -> List[Event]:
    """The newest ``n`` events in the default ring (all when ``n`` is None)."""
    return ring.tail(n)


def counts() -> Dict[str, int]:
    """Event volume per name currently buffered in the default ring."""
    return ring.counts()


def drain() -> List[Event]:
    """Remove and return everything buffered in the default ring."""
    return ring.drain()


def reset() -> None:
    """Detach every sink, restart numbering, re-attach a fresh default ring.

    Test isolation helper — mirrors :func:`repro.perf.reset`.
    """
    global ring
    log.reset()
    log.enabled = True
    ring = log.add_sink(RingBufferSink())


def enable() -> None:
    log.enable()


def disable() -> None:
    """Stop emitting (sinks stay attached; spans still time into perf)."""
    log.disable()
