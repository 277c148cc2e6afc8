"""Property fuzz: corrupted checkpoints must fail typed, never crash.

A checkpoint is data read off a disk or a wire, so ``restore`` at every
layer (backoff, breaker, session, service, fleet) owes the caller the
data-error contract: for *any* mangled input it either restores something
valid or raises :class:`~repro.errors.DataQualityError` /
:class:`~repro.errors.ConfigurationError` — never a bare ``KeyError``,
``TypeError`` or ``ValueError`` from half-parsed fields (the crash class
fixed in this change; see ``restore_guard``).

Hypothesis drives structural corruption of genuine checkpoints: deleting
keys (truncation), replacing values with junk of every JSON shape, and
swapping whole subtrees.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DataQualityError
from repro.service import (
    BackoffConfig,
    BreakerConfig,
    CircuitBreaker,
    ExponentialBackoff,
    ServiceConfig,
    TrackingService,
    TrackingSession,
)
from repro.types import ImuSample, LocationEstimate, RssiSample, Vec2

ALLOWED = (DataQualityError, ConfigurationError)

JUNK = st.sampled_from([
    None, True, "x", "open", "1e309", -1, -7, 2 ** 80, -1.5,
    float("nan"), float("inf"), -float("inf"), [], [1, 2], {}, {"a": 1},
])


class _StubEstimator:
    min_samples = 3


class _OkPipeline:
    def __init__(self):
        self.estimator = _StubEstimator()

    def estimate(self, trace, imu, warm=None, extra_seeds=(), tracks=None):
        t = trace.samples[-1].timestamp
        return LocationEstimate(
            position=Vec2(0.1 * t, 1.0), confidence=0.9, position_std=0.5
        )


def _live_service() -> TrackingService:
    svc = TrackingService(ServiceConfig(), pipeline_factory=_OkPipeline)
    for k in range(1, 4):
        t = float(k)
        svc.ingest_scans([
            RssiSample(t - off, -60.0, bid, 37)
            for bid in ("a", "b") for off in (0.3, 0.2, 0.1)
        ])
        svc.ingest_imu([ImuSample(t - 0.4 + 0.1 * i, 0.5, 0.0, 0.0)
                        for i in range(4)])
        svc.step(t)
    return svc


def _breaker_cp():
    br = CircuitBreaker(BreakerConfig(failure_threshold=2), key="fz")
    for t in (0.0, 1.0):
        br.record_failure(t)
    return br.checkpoint()


def _backoff_cp():
    bo = ExponentialBackoff(BackoffConfig(), key="fz")
    bo.on_failure(3.0)
    bo.on_failure(5.0)
    return bo.checkpoint()


_SERVICE = _live_service()
BASES = {
    "backoff": _backoff_cp(),
    "breaker": _breaker_cp(),
    "session": _SERVICE.sessions["a"].checkpoint(),
    "service": _SERVICE.checkpoint(),
}
RESTORERS = {
    "backoff": lambda cp: ExponentialBackoff.restore(cp),
    "breaker": lambda cp: CircuitBreaker.restore(cp),
    "session": lambda cp: TrackingSession.restore(
        cp, pipeline_factory=_OkPipeline),
    "service": lambda cp: TrackingService.restore(
        cp, pipeline_factory=_OkPipeline),
}


def _paths(node, prefix=()):
    """Every key-path into a nested checkpoint dict."""
    out = []
    if isinstance(node, dict):
        for key, value in node.items():
            out.append(prefix + (key,))
            out.extend(_paths(value, prefix + (key,)))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.append(prefix + (i,))
            out.extend(_paths(value, prefix + (i,)))
    return out


def _apply(cp, path, action, junk):
    node = cp
    for key in path[:-1]:
        node = node[key]
    leaf = path[-1]
    if action == "delete":
        del node[leaf]
    else:
        node[leaf] = junk
    return cp


@st.composite
def corruptions(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    base = BASES[name]
    path = draw(st.sampled_from(_paths(base)))
    action = draw(st.sampled_from(["delete", "replace"]))
    junk = draw(JUNK) if action == "replace" else None
    return name, path, action, junk


@given(corruptions())
@settings(max_examples=200, deadline=None)
def test_corrupted_checkpoints_fail_typed_or_restore(case):
    name, path, action, junk = case
    cp = _apply(copy.deepcopy(BASES[name]), path, action, junk)
    try:
        RESTORERS[name](cp)
    except ALLOWED:
        pass
    # Any other exception escapes and fails the test: that is the bug class
    # this suite exists to catch. A clean restore is fine — some
    # corruptions are benign (e.g. replacing a value with a valid one).


@given(st.sampled_from(sorted(BASES)), st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_checkpoints_fail_typed(name, data):
    # Truncation: keep only a random subset of top-level keys.
    base = BASES[name]
    keep = data.draw(st.sets(st.sampled_from(sorted(base)),
                             max_size=len(base) - 1))
    cp = {k: copy.deepcopy(base[k]) for k in keep}
    try:
        RESTORERS[name](cp)
    except ALLOWED:
        pass


def test_uncorrupted_bases_restore_cleanly():
    # The fuzz above is only meaningful if the bases are genuinely valid.
    for name, base in BASES.items():
        RESTORERS[name](json.loads(json.dumps(base)))
