"""The one stub pipeline the service, fleet and durability tests run on.

:class:`ScriptedPipeline` speaks the batched solve protocol the service
serves through — ``prepare_estimate`` → ``fit_batch`` →
``complete_estimate`` — so a stubbed test drives exactly the path real
traffic takes. Each solve is one real warm :func:`fit_batch` call on a
shared, well-posed L-walk window (solved cold once, at import); the fix the
stub returns does not depend on it. Solve outcomes follow a script. A data
shortage is raised from ``prepare_estimate``, as the real pipeline's
sufficiency rule does; scripted solve failures are raised from
``complete_estimate``, so they reach
:meth:`~repro.service.TrackingSession.resolve_solve` the same way real
solver failures do.

:class:`RecordingSink` is the one event sink the tests read events from;
the ``recorded`` fixture in ``conftest.py`` attaches one for a test, and
:func:`recording` attaches one for a block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Sequence

import numpy as np

from repro import obs
from repro.channel.pathloss import rss_at
from repro.core.estimator import EllipticalEstimator, FitRequest, fit_batch
from repro.errors import (
    DegenerateGeometryError,
    EstimationError,
    InsufficientDataError,
)
from repro.service.session import ImuTick
from repro.types import LocationEstimate, Vec2


def _shared_request() -> FitRequest:
    """A 48-row L-walk window (+x then +y) carrying its own warm state."""
    d = np.linspace(0.0, 4.5, 48)
    p = -np.minimum(d, 2.5)
    q = -np.clip(d - 2.5, 0.0, 2.0)
    noise = np.random.default_rng(7).normal(0.0, 0.5, d.shape)
    rss = np.array([rss_at(r, -59.0, 2.0)
                    for r in np.hypot(4.0 + p, 3.0 + q)]) + noise
    est = EllipticalEstimator()
    return FitRequest(p=p, q=q, rss=rss, warm=est.fit(p, q, rss).warm,
                      estimator=est)


#: The request every stub solve submits: well-posed, so its warm solve
#: succeeds deterministically wherever it lands in a batch.
_SHARED_REQUEST = _shared_request()


#: The fewest RSS rows a scripted window may hold.
_MIN_RSS_ROWS = 3


@dataclass
class _Prepared:
    action: str
    t: float
    anf_stream: None = None  # the stub filters nothing, so carries nothing

    def request(self, warm=None) -> FitRequest:
        return _SHARED_REQUEST


class ScriptedPipeline:
    """A pipeline whose solve outcomes follow a script.

    Like the real pipeline, ``prepare_estimate`` refuses a window short of
    data with :class:`~repro.errors.InsufficientDataError`: fewer than
    :data:`_MIN_RSS_ROWS` RSS rows or fewer than 2 IMU samples. Otherwise it
    takes the next script entry: ``"ok"``, ``"nodata"`` (refused the same
    way), ``"degenerate"`` or ``"failed"`` (a non-degenerate
    :class:`~repro.errors.EstimationError`); the last entry repeats
    forever. ``calls`` counts the entries taken. An ``"ok"`` solve returns
    a fix derived from the window's last stream time.
    """

    def __init__(self, script: Sequence[str] = ("ok",)):
        self.script = list(script)
        self.calls = 0

    def prepare_estimate(self, trace, imu, target_imu=None, tracks=None,
                         anf_stream=None):
        if len(trace) < _MIN_RSS_ROWS:
            raise InsufficientDataError(
                f"scripted: {len(trace)} RSS samples")
        if len(imu) < 2:
            raise InsufficientDataError(f"scripted: {len(imu)} IMU samples")
        action = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        if action == "nodata":
            raise InsufficientDataError("scripted: no data")
        return _Prepared(action, trace.samples[-1].timestamp)

    def complete_estimate(self, prepared: _Prepared, fit) -> LocationEstimate:
        if prepared.action == "degenerate":
            raise DegenerateGeometryError("scripted: geometry degenerate")
        if prepared.action == "failed":
            raise EstimationError("scripted: solve failed")
        return LocationEstimate(position=Vec2(0.1 * prepared.t, 1.0),
                                confidence=0.9, position_std=0.5)


def step_session(session, t, imu):
    """One tick of a lone session over the observer IMU ``imu``: a batch
    of one through ``fit_batch``."""
    pending = session.begin_step(t, ImuTick(imu, t))
    if pending is not None:
        fit = fit_batch([pending.request], return_exceptions=True)[0]
        session.resolve_solve(pending, fit)
    return session.finish_step(t)


class RecordingSink:
    """Keeps every event the process event log sends it, oldest first."""

    def __init__(self) -> None:
        self.events: List[Any] = []

    def write(self, event) -> None:
        self.events.append(event)

    def named(self, name: str) -> List[Any]:
        """The recorded events called ``name``, oldest first."""
        return [e for e in self.events if e.name == name]

    def drain(self) -> List[Any]:
        """Remove and return every recorded event, oldest first."""
        events, self.events = self.events, []
        return events


@contextmanager
def recording() -> Iterator[RecordingSink]:
    """A :class:`RecordingSink` attached to the process log for a block."""
    sink = obs.add_sink(RecordingSink())
    try:
        yield sink
    finally:
        obs.remove_sink(sink)
