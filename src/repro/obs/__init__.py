"""Structured observability for the LocBLE reproduction (:mod:`repro.obs`).

The silent-failure postmortems that motivated this layer all shared one
shape: a numeric fallback fired (``except LinAlgError: pass``, a capped
std, a shed sample) and nothing recorded that it had happened. ``repro.obs``
makes those paths loud without making them fragile — every fallback becomes
a typed, counted, JSON-serialisable event, and the emitting code path never
slows down meaningfully or crashes because of telemetry.

Like :mod:`repro.perf`, the module doubles as a process-wide facade::

    from repro import obs

    sink = obs.add_sink(obs.CountingSink())
    obs.signal("estimator.cov_fallbacks", severity="warning",
               status="rank-deficient", cond=3.2e17)
    obs.remove_sink(sink)

Every counted occurrence goes through :func:`signal`, the one call that
writes the owner's checkpointed ledger, the :mod:`repro.perf` counter and
the event under one name; it is the only way an event is made. Events go
only to the sinks a caller attached (a
:class:`~repro.obs.sinks.JsonLinesSink` file, a
:class:`~repro.obs.sinks.CountingSink`, or anything with a
``write(event)`` method); with none attached, a signal builds no event.
See ``docs/observability.md`` for the event schema and the list of
signals each component emits.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro import perf
from repro.obs.events import SEVERITIES, Event, EventLog
from repro.obs.provenance import FixProvenance
from repro.obs.sinks import CountingSink, JsonLinesSink

__all__ = [
    "SEVERITIES",
    "Event",
    "EventLog",
    "FixProvenance",
    "JsonLinesSink",
    "CountingSink",
    "log",
    "signal",
    "signal_parity",
    "add_sink",
    "remove_sink",
    "reset",
    "enable",
    "disable",
]

#: The process-wide event log every instrumented module emits into.
log = EventLog()


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
    log.emit(name, severity=severity, component=family, n=n, **fields)


def signal_parity(
    sink: CountingSink, perf_before: Mapping[str, int]
) -> List[str]:
    """Every signal in ``sink`` whose volume differs from its perf delta.

    ``perf_before`` is ``perf.snapshot()["counters"]`` taken when ``sink``
    was attached. Every event comes from :func:`signal`, so over a window
    with both switches on the n-weighted event volume of a name equals the
    growth of its perf counter; the harnesses gate on an empty result.
    """
    failures = []
    for name, volume in sorted(sink.volume.items()):
        delta = perf.counter_value(name) - perf_before.get(name, 0)
        if volume != delta:
            failures.append(f"{name}: events {volume} != counter {delta}")
    return failures


def add_sink(sink: Any) -> Any:
    """Attach a sink to the default log; returns the sink."""
    return log.add_sink(sink)


def remove_sink(sink: Any) -> bool:
    """Detach a sink from the default log."""
    return log.remove_sink(sink)


def reset() -> None:
    """Detach every sink, restart numbering and switch events back on.

    Test isolation helper — mirrors :func:`repro.perf.reset`.
    """
    log.reset()
    log.enabled = True


def enable() -> None:
    log.enable()


def disable() -> None:
    """Stop emitting (sinks stay attached)."""
    log.disable()
