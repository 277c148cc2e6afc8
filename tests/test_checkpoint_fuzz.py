"""Property fuzz: corrupted checkpoints must fail typed, never crash.

A checkpoint is data read off a disk or a wire, so ``restore`` at every
layer (breaker, session, service, fleet) owes the caller the
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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DataQualityError
from repro.fleet import TrackingFleet
from repro.service import (
    BreakerConfig,
    CircuitBreaker,
    TrackingService,
    TrackingSession,
)
from repro.types import ImuSample, RssiSample
from tests.stubs import ScriptedPipeline, one_shard, recording

ALLOWED = (DataQualityError, ConfigurationError)

JUNK = st.sampled_from([
    None, True, "x", "open", "1e309", -1, -7, 2 ** 80, -1.5,
    float("nan"), float("inf"), -float("inf"), [], [1, 2], {}, {"a": 1},
])


def _live_fleet() -> TrackingFleet:
    svc = one_shard(pipeline_factory=ScriptedPipeline)
    for k in range(1, 4):
        t = float(k)
        svc.ingest_scans([
            RssiSample(t - off, -60.0, bid, 37)
            for bid in ("a", "b") for off in (0.3, 0.2, 0.1)
        ])
        svc.ingest_imu([ImuSample(t - 0.4 + 0.1 * i, 0.5, 0.0, 0.0)
                        for i in range(4)])
        svc.tick(t)
    return svc


def _breaker_cp():
    br = CircuitBreaker(BreakerConfig(failure_threshold=2), key="fz")
    for t in (0.0, 1.0):
        br.record_failure(t)
    return br.checkpoint()


_FLEET = _live_fleet()
_SERVICE = _FLEET.workers[0].service
BASES = {
    "breaker": _breaker_cp(),
    "session": _SERVICE.sessions["a"].checkpoint(),
    "service": _SERVICE.checkpoint(),
}
RESTORERS = {
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


@given(st.one_of(JUNK, st.just(_FLEET.checkpoint()["imu"])))
@settings(max_examples=40, deadline=None)
def test_service_checkpoint_carrying_a_ring_refused(imu):
    # The observer-IMU ring lives in the fleet's checkpoint: a service
    # checkpoint with an `imu` key is refused typed, whatever it holds.
    cp = dict(copy.deepcopy(BASES["service"]), imu=imu)
    with pytest.raises(DataQualityError, match="IMU ring"):
        RESTORERS["service"](cp)


def test_uncorrupted_bases_restore_cleanly():
    # The fuzz above is only meaningful if the bases are genuinely valid.
    for name, base in BASES.items():
        RESTORERS[name](json.loads(json.dumps(base)))


# -- the session's noise-filter stream -----------------------------------------


def _real_session(nan_at=None):
    """A default-pipeline session whose noise filter carries a stream.

    ``nan_at`` blanks the RSSI of the scan nearest that time, so every
    later window is repaired (the sample is dropped) before filtering.
    """
    import numpy as np

    from repro.core.estimator import fit_batch
    from repro.service.session import ImuTick, SessionConfig
    from repro.sim.soak import simulate_walk
    from repro.types import ImuTrace

    rec = simulate_walk(1, np.random.default_rng(3), 24.0, ["a"])
    scans = list(rec.rssi_traces["a"].samples)
    if nan_at is not None:
        i = min(range(len(scans)),
                key=lambda j: abs(scans[j].timestamp - nan_at))
        scans[i] = RssiSample(scans[i].timestamp, float("nan"), "a",
                              scans[i].channel)
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
    from repro.core.anf import AdaptiveNoiseFilter

    session, step = _real_session()
    current = session.checkpoint()
    legacy = copy.deepcopy(current)
    del legacy["anf"]
    outcomes = {}
    for name, cp in (("legacy", legacy), ("current", current)):
        restored = TrackingSession.restore(json.loads(json.dumps(cp)))
        with recording() as sink:
            pending = next(p for p in (step(restored, t)
                                       for t in (13.0, 14.0, 15.0))
                           if p is not None)
        reasons = [e.fields["reason"]
                   for e in sink.named("pipeline.anf_resets")]
        outcomes[name] = (reasons, pending.prepared.ctx)
    reasons, ctx = outcomes["legacy"]
    assert reasons == ["no-state"]
    fs = ctx.anf_stream.fs_hz
    assert (ctx.matched_rss
            == AdaptiveNoiseFilter().apply(ctx.anf_stream.raw, fs)).all()
    assert outcomes["current"][0] == []


# -- the stream's samples as rows of the session's RSS ring --------------------


def test_clean_stream_names_ring_rows_instead_of_arrays():
    anf = _ANF_BASE["anf"]
    assert "t" not in anf and "raw" not in anf
    offset, count = anf["ring"]
    assert count == len(anf["out"])
    rows = _ANF_BASE["rss"][offset:offset + count]
    restored = TrackingSession.restore(json.loads(json.dumps(_ANF_BASE)))
    assert restored._anf.t.tolist() == [r[0] for r in rows]
    assert restored._anf.raw.tolist() == [r[1] for r in rows]


def test_checkpoint_holding_the_arrays_still_restores():
    """The layout written before ring rows (``t`` and ``raw`` in full)
    restores to the same stream, which is then written as ring rows."""
    cp = copy.deepcopy(_ANF_BASE)
    offset, count = cp["anf"].pop("ring")
    rows = cp["rss"][offset:offset + count]
    cp["anf"]["t"] = [r[0] for r in rows]
    cp["anf"]["raw"] = [r[1] for r in rows]
    restored = TrackingSession.restore(json.loads(json.dumps(cp)))
    assert restored.checkpoint() == _ANF_BASE


def _bad_rings():
    offset, count = _ANF_BASE["anf"]["ring"]
    n = len(_ANF_BASE["rss"])
    return [[offset, count + 1], [offset, count - 1], [n, count],
            [n - count + 1, count], [-1, count], [offset, -count],
            [True, count], [float(offset), count], [offset],
            [offset, count, 0], f"{offset}:{count}", None, {}]


@pytest.mark.parametrize("ring", _bad_rings())
def test_bad_ring_rows_fail_typed(ring):
    cp = copy.deepcopy(_ANF_BASE)
    cp["anf"]["ring"] = ring
    with pytest.raises(DataQualityError):
        TrackingSession.restore(cp)


def test_nonfinite_ring_rows_fail_typed():
    cp = copy.deepcopy(_ANF_BASE)
    offset, _ = cp["anf"]["ring"]
    cp["rss"][offset][1] = float("nan")
    with pytest.raises(DataQualityError, match="finite"):
        TrackingSession.restore(cp)


def test_ring_rows_without_a_ring_fail_typed():
    from repro.core.anf import AdaptiveNoiseFilter

    with pytest.raises(DataQualityError, match="no ring"):
        AdaptiveNoiseFilter().restore_stream(_ANF_BASE["anf"])


def test_repaired_window_keeps_its_arrays():
    session, _ = _real_session(nan_at=8.0)
    cp = session.checkpoint()
    anf = cp["anf"]
    assert "ring" not in anf
    assert len(anf["t"]) == len(anf["raw"]) == len(anf["out"])
    # The dropped sample is a ring row the stream skipped.
    assert len(anf["t"]) < len(cp["rss"])
    restored = TrackingSession.restore(json.loads(json.dumps(cp)))
    assert json.dumps(restored.checkpoint()) == json.dumps(cp)  # NaN rssi


@pytest.mark.parametrize("nan_at", [None, 8.0])
def test_restored_session_fixes_match_its_uninterrupted_twin(nan_at):
    from repro.service.session import snapshot_key

    session, step = _real_session(nan_at)
    twin = TrackingSession.restore(
        json.loads(json.dumps(session.checkpoint())))
    solved = 0
    for t in map(float, range(13, 21)):
        solved += sum(step(s, t) is not None for s in (session, twin))
        assert (snapshot_key(twin.finish_step(t))
                == snapshot_key(session.finish_step(t)))
    assert solved >= 4 and session.last_estimate is not None
