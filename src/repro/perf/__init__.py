"""Lightweight performance instrumentation for the hot paths.

One process-wide registry of wall-clock timers and event counters, designed
to stay enabled in production: the estimator, ANF, DTW and pipeline entry
points are decorated with :func:`profiled`, so any long-running deployment
can ask :func:`snapshot` where its time went without attaching a profiler.

Usage::

    from repro import perf

    with perf.timer("estimator.fit"):
        estimator.fit(p, q, rss)

    perf.count("segmatch.envelope_cache_hits")
    print(perf.snapshot()["timers"]["estimator.fit"]["mean_s"])

``perf.disable()`` turns the whole subsystem into a no-op (one boolean check
per call) for overhead-sensitive sweeps; ``perf.reset()`` clears the stats
between measurement windows.
"""

from __future__ import annotations

from repro.perf.timers import PerfRegistry, TimerStats

__all__ = [
    "PerfRegistry",
    "TimerStats",
    "registry",
    "timer",
    "count",
    "record",
    "profiled",
    "snapshot",
    "counter_value",
    "reset",
    "enable",
    "disable",
]

#: The process-wide default registry used by the module-level helpers below
#: and by every ``@profiled`` hot path in the library.
registry = PerfRegistry()

timer = registry.timer
count = registry.count
record = registry.record
profiled = registry.profiled
snapshot = registry.snapshot
counter_value = registry.counter_value
reset = registry.reset
enable = registry.enable
disable = registry.disable
