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
from repro.types import ImuSample, RssiSample
from tests.stubs import ScriptedPipeline

ALLOWED = (DataQualityError, ConfigurationError)

JUNK = st.sampled_from([
    None, True, "x", "open", "1e309", -1, -7, 2 ** 80, -1.5,
    float("nan"), float("inf"), -float("inf"), [], [1, 2], {}, {"a": 1},
])


def _live_service() -> TrackingService:
    svc = TrackingService(ServiceConfig(), pipeline_factory=ScriptedPipeline)
    for k in range(1, 4):
        t = float(k)
        svc.ingest_scans([
            RssiSample(t - off, -60.0, bid, 37)
            for bid in ("a", "b") for off in (0.3, 0.2, 0.1)
        ])
        svc.ingest_imu([ImuSample(t - 0.4 + 0.1 * i, 0.5, 0.0, 0.0)
                        for i in range(4)])
        svc.tick_batch(t)
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
        cp, pipeline_factory=ScriptedPipeline),
    "service": lambda cp: TrackingService.restore(
        cp, pipeline_factory=ScriptedPipeline),
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


# -- the session's noise-filter stream -----------------------------------------


def _real_session():
    """A default-pipeline session whose noise filter carries a stream."""
    import numpy as np

    from repro.core.estimator import fit_batch
    from repro.service.session import ImuTick, SessionConfig
    from repro.sim.soak import simulate_walk
    from repro.types import ImuTrace

    rec = simulate_walk(1, np.random.default_rng(3), 24.0, ["a"])
    scans = rec.rssi_traces["a"].samples
    imu = ImuTrace(rec.observer_imu.trace.samples)
    session = TrackingSession("a", SessionConfig(window_s=20.0))

    def step(session, t):
        """One tick; returns the solve it began, if any."""
        session.ingest([s for s in scans if t - 1.0 <= s.timestamp < t])
        pending = session.begin_step(t, ImuTick(imu, t))
        if pending is not None:
            fit = fit_batch([pending.request], return_exceptions=True)[0]
            session.resolve_solve(pending, fit)
        return pending

    for k in range(1, 13):
        step(session, float(k))
    return session, step


_ANF_SESSION, _ = _real_session()
_ANF_BASE = _ANF_SESSION.checkpoint()
#: Junk no field of the stream may hold.
MALFORMED = [None, True, "x", "1e309", float("nan"), float("inf"), [], {},
             {"a": 1}, [1, 2, 3]]


def test_stream_base_carries_every_state_field():
    anf = _ANF_BASE["anf"]
    assert anf is not None and len(anf["zi"]) == 3
    assert set(anf["akf"]) == {"x", "p", "r", "innovations", "prev_s"}
    restored = TrackingSession.restore(json.loads(json.dumps(_ANF_BASE)))
    assert restored.checkpoint() == _ANF_BASE


@given(st.sampled_from(_paths(_ANF_BASE["anf"])), st.sampled_from(MALFORMED))
@settings(max_examples=150, deadline=None)
def test_malformed_stream_fields_fail_typed(path, junk):
    if path == ("akf", "innovations") and junk in ([], [1, 2, 3]):
        junk = None  # any short list of numbers is a valid window
    for action in ("delete", "replace"):
        cp = copy.deepcopy(_ANF_BASE)
        node = cp["anf"]
        for key in path[:-1]:
            node = node[key]
        if action == "replace":
            node[path[-1]] = junk
        elif isinstance(node, dict):
            del node[path[-1]]
        else:
            continue  # a shorter list may still be a valid stream
        try:
            TrackingSession.restore(cp)
        except DataQualityError:
            continue
        raise AssertionError(f"{action} {path} -> {junk!r} restored")


def test_stream_on_a_pipeline_without_a_filter_fails_typed():
    cp = copy.deepcopy(_ANF_BASE)
    try:
        TrackingSession.restore(cp, pipeline_factory=ScriptedPipeline)
    except DataQualityError:
        return
    raise AssertionError("restored a stream onto a filterless pipeline")


def test_checkpoint_without_a_stream_refilters_from_rest():
    """The legacy rule: a checkpoint written before sessions carried their
    noise filter's stream restores with none, and the next solve filters
    its window from rest (one ``no-state`` reset); the twin restored with
    its stream carries on without one."""
    from repro import obs
    from repro.core.anf import AdaptiveNoiseFilter

    session, step = _real_session()
    current = session.checkpoint()
    legacy = copy.deepcopy(current)
    del legacy["anf"]
    outcomes = {}
    for name, cp in (("legacy", legacy), ("current", current)):
        restored = TrackingSession.restore(json.loads(json.dumps(cp)))
        ring = obs.add_sink(obs.RingBufferSink())
        try:
            pending = next(p for p in (step(restored, t)
                                       for t in (13.0, 14.0, 15.0))
                           if p is not None)
        finally:
            obs.remove_sink(ring)
        reasons = [e.fields["reason"] for e in ring.tail()
                   if e.name == "pipeline.anf_resets"]
        outcomes[name] = (reasons, pending.prepared.ctx)
    reasons, ctx = outcomes["legacy"]
    assert reasons == ["no-state"]
    fs = ctx.anf_stream.fs_hz
    assert (ctx.matched_rss
            == AdaptiveNoiseFilter().apply(ctx.anf_stream.raw, fs)).all()
    assert outcomes["current"][0] == []
