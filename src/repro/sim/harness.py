"""The core the seeded fault-injection harnesses share.

:mod:`repro.sim.soak`, :mod:`repro.gateway.soak` and
:mod:`repro.durability.chaos` audit their runs, book their errors, gate
resume and replay on per-tick snapshot digests and slice their streams
into ticks with the code here.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs, perf
from repro.errors import ReproError
from repro.types import ImuSample, RssiSample

__all__ = ["Audit", "ErrorLedger", "Mismatch", "Tick", "digest_mismatches",
           "slice_ticks"]

#: One ingest batch: ``(t, scans in [t - tick_s, t), imu in the same span)``.
Tick = Tuple[float, Tuple[RssiSample, ...], Tuple[ImuSample, ...]]

#: ``(tick_index, t, expected_digest, actual_digest)`` for one diverged tick.
Mismatch = Tuple[int, float, str, str]


class Audit:
    """Run-scoped obs/perf audit: ``with Audit() as audit: ...``.

    After the block: ``events`` (count per event name), ``volume``
    (``n``-weighted), ``perf_delta`` (positive :mod:`repro.perf` counter
    growth) and ``parity_failures`` (:func:`repro.obs.signal_parity`; must
    be empty). ``events_jsonl`` also writes the events as JSON lines.
    """

    def __init__(self, events_jsonl: Optional[str] = None):
        self.events_jsonl = events_jsonl

    def __enter__(self) -> "Audit":
        self._sink = obs.add_sink(obs.CountingSink())
        self._jsonl = (None if self.events_jsonl is None
                       else obs.add_sink(obs.JsonLinesSink(self.events_jsonl)))
        self._before = perf.snapshot()["counters"]
        return self

    def __exit__(self, *exc: Any) -> None:
        obs.remove_sink(self._sink)
        if self._jsonl is not None:
            obs.remove_sink(self._jsonl)
            self._jsonl.close()
        grown = {name: int(n) - int(self._before.get(name, 0))
                 for name, n in sorted(perf.snapshot()["counters"].items())}
        self.perf_delta: Dict[str, int] = {
            name: d for name, d in grown.items() if d > 0}
        self.events: Dict[str, int] = dict(sorted(self._sink.by_name.items()))
        self.volume: Dict[str, int] = dict(self._sink.volume)
        self.parity_failures: List[str] = obs.signal_parity(
            self._sink, self._before)


@dataclass
class ErrorLedger:
    """Caught failures as ``"ExcType: message"``; ``untyped`` counts those
    outside ``typed``, the exception types the system may surface."""

    typed: Tuple[type, ...] = (ReproError,)
    errors: List[str] = field(default_factory=list)
    untyped: int = 0

    def record(self, exc: BaseException) -> None:
        self.errors.append(f"{type(exc).__name__}: {exc}")
        if not isinstance(exc, self.typed):
            self.untyped += 1

    def fail(self, message: str) -> None:
        """A failure no exception carried; always untyped."""
        self.errors.append(message)
        self.untyped += 1

    @contextmanager
    def capture(self) -> Iterator[None]:
        """Book any exception the block raises instead of propagating it."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 — a harness sees every failure
            self.record(exc)


def digest_mismatches(
    expected: Sequence[str],
    actual: Sequence[str],
    times: Sequence[float],
    first_index: int = 0,
) -> List[Mismatch]:
    """Every tick where two per-tick snapshot-digest streams differ.

    ``times[i]`` is the time of ``expected[i]``; indices start at
    ``first_index``. A tick in only one stream differs from
    ``"<missing>"``, so ``[]`` means identical snapshots at every tick.
    """
    out: List[Mismatch] = []
    for i in range(max(len(expected), len(actual))):
        want = expected[i] if i < len(expected) else "<missing>"
        got = actual[i] if i < len(actual) else "<missing>"
        if want != got:
            t = float(times[i]) if i < len(times) else math.nan
            out.append((first_index + i, t, want, got))
    return out


def slice_ticks(
    scans: Sequence[RssiSample],
    imu: Sequence[ImuSample],
    duration_s: float,
    tick_s: float,
) -> List[Tick]:
    """Cut time-sorted streams into ``ceil(duration_s / tick_s)`` ticks; tick
    ``k >= 1`` takes the samples before ``k * tick_s`` no earlier tick took."""
    ticks: List[Tick] = []
    si = ii = 0
    for k in range(1, int(math.ceil(duration_s / tick_s)) + 1):
        t = k * tick_s
        sj = si
        while sj < len(scans) and scans[sj].timestamp < t:
            sj += 1
        ij = ii
        while ij < len(imu) and imu[ij].timestamp < t:
            ij += 1
        ticks.append((t, tuple(scans[si:sj]), tuple(imu[ii:ij])))
        si, ii = sj, ij
    return ticks
