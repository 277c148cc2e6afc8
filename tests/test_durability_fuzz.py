"""Property fuzz: disk-level corruption must fail typed, never crash.

:mod:`tests.test_checkpoint_fuzz` mangles checkpoint *structures*; this
suite mangles the *bytes under them* — the store's snapshot files and the
trace's tail — because that is what real disks and real crashes corrupt.
Two invariants, over arbitrary corruption:

* **Store**: for any combination of truncation, bit-flips and file
  duplication across a populated :class:`CheckpointStore`,
  ``restore_latest`` either returns the newest payload whose file still
  verifies or raises :class:`DataQualityError` /
  :class:`ConfigurationError` — never an untyped exception — and never
  returns a payload that was not one of the saved generations.
* **Store memo**: a long-lived store, which remembers the files it
  already verified, leaves exactly the tree and events a fresh store per
  save leaves, whatever corruption lands between its saves.
* **Trace**: for any truncation point, ``recover_trace`` either returns
  a verified prefix of the original ticks (dropping at most the one torn
  line) or refuses typed.
"""

import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import CheckpointStore
from repro.errors import ConfigurationError, DataQualityError
from repro.gateway import IngestionGateway, TraceWriter, trace_meta
from repro.gateway.gateway import GatewayConfig
from repro.gateway.trace import recover_trace
from repro.types import RssiSample
from tests.stubs import recording

ALLOWED = (DataQualityError, ConfigurationError)

N_GENERATIONS = 4


def _populate(root) -> CheckpointStore:
    store = CheckpointStore(str(root), retain=N_GENERATIONS,
                            durability="flush")
    for k in range(N_GENERATIONS):
        store.save("fleet", {"generation": k}, tick=k)
    return store


def _snapshot_files(root):
    return sorted(p for p in os.listdir(root)
                  if p.startswith("fleet-") and p.endswith(".ckpt.json"))


# One corruption op: (kind, file_index, position_fraction, byte).
CORRUPTION = st.tuples(
    st.sampled_from(["truncate", "bitflip", "duplicate", "garbage"]),
    st.integers(min_value=0, max_value=N_GENERATIONS - 1),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=255),
)


def _apply(root: str, op) -> None:
    kind, index, frac, byte = op
    names = _snapshot_files(root)
    if not names:
        return
    path = os.path.join(root, names[index % len(names)])
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if not data:
        return
    pos = min(int(frac * len(data)), len(data) - 1)
    if kind == "truncate":
        with open(path, "wb") as fh:
            fh.write(bytes(data[:pos]))
    elif kind == "bitflip":
        data[pos] ^= (byte or 1)
        with open(path, "wb") as fh:
            fh.write(bytes(data))
    elif kind == "garbage":
        data[pos:pos] = bytes([byte]) * 3
        with open(path, "wb") as fh:
            fh.write(bytes(data))
    elif kind == "duplicate":
        # A copied-then-renamed snapshot: valid bytes, foreign name.
        target = os.path.join(
            root, f"fleet-{90000000 + (byte % 100):08d}.ckpt.json")
        with open(target, "wb") as fh:
            fh.write(bytes(data))


class TestStoreCorruptionFuzz:
    @settings(max_examples=120, deadline=None)
    @given(ops=st.lists(CORRUPTION, min_size=1, max_size=6))
    def test_restore_is_typed_and_latest_verifiable_wins(
            self, tmp_path_factory, ops):
        root = tmp_path_factory.mktemp("store")
        _populate(root)
        for op in ops:
            _apply(str(root), op)
        store = CheckpointStore(str(root), retain=N_GENERATIONS)
        try:
            restored = store.restore_latest("fleet")
        except ALLOWED:
            return  # every generation corrupted: typed refusal is correct
        payload = restored.payload
        assert isinstance(payload, dict)
        assert payload.get("generation") in range(N_GENERATIONS)
        # Latest-verifiable-wins: every *newer* untouched generation
        # would have been returned instead, so anything skipped on the
        # way down really failed verification.
        for name, reason in restored.skipped:
            assert reason

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(CORRUPTION, min_size=1, max_size=6))
    def test_save_still_works_after_corruption(self, tmp_path_factory, ops):
        root = tmp_path_factory.mktemp("store")
        _populate(root)
        for op in ops:
            _apply(str(root), op)
        store = CheckpointStore(str(root), retain=N_GENERATIONS)
        info = store.save("fleet", {"generation": "post-corruption"},
                          tick=99)
        restored = store.restore_latest("fleet")
        assert restored.payload == {"generation": "post-corruption"}
        assert restored.info.seq == info.seq

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(CORRUPTION, min_size=1, max_size=8))
    def test_long_lived_store_matches_fresh_store_per_save(
            self, tmp_path_factory, ops):
        """Corruption between saves of one store: its memo of verified
        files must never trust changed bytes, so every step leaves the
        same tree and the same ``durability.*`` events as a twin
        directory where a fresh store (empty memo) does each save."""
        live_root = tmp_path_factory.mktemp("live")
        twin_root = tmp_path_factory.mktemp("twin")
        live = CheckpointStore(str(live_root), retain=N_GENERATIONS,
                               durability="flush")
        with recording() as sink:
            for step in range(len(ops) + N_GENERATIONS):
                if step >= N_GENERATIONS:
                    op = ops[step - N_GENERATIONS]
                    _apply(str(live_root), op)
                    _apply(str(twin_root), op)
                payload = {"generation": step}
                sink.drain()
                live.save("fleet", payload, tick=step)
                live_events = _durability_events(sink.drain())
                CheckpointStore(str(twin_root), retain=N_GENERATIONS,
                                durability="flush").save(
                                    "fleet", payload, tick=step)
                assert _durability_events(sink.drain()) == live_events
                assert _tree(live_root) == _tree(twin_root), step


def _durability_events(events):
    return [(e.name, e.severity, dict(e.fields)) for e in events
            if e.name.startswith("durability.")]


def _tree(root):
    """Every file under ``root`` (snapshots, MANIFEST, quarantine and its
    ``.reason`` sidecars) by relative path, with its bytes."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _recorded_trace(path, ticks=5) -> int:
    gw = IngestionGateway(GatewayConfig())
    writer = TraceWriter(str(path), meta=trace_meta(gw))
    gw.tap = writer
    for k in range(ticks):
        t = float(k + 1)
        gw.enqueue_scans([RssiSample(t - 0.5, -60.0, "b1", 37)])
        gw.tick(t)
    writer.abort()  # crash artifact: unsealed
    return ticks


class TestTornTraceFuzz:
    @settings(max_examples=120, deadline=None)
    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    def test_any_truncation_yields_verified_prefix_or_typed(
            self, tmp_path_factory, frac):
        path = tmp_path_factory.mktemp("trace") / "t.trace"
        total = _recorded_trace(path)
        data = path.read_bytes()
        cut = int(frac * len(data))
        path.write_bytes(data[:cut])
        try:
            meta, ticks, recovery = recover_trace(str(path))
        except ALLOWED:
            return  # e.g. header gone entirely: typed refusal
        # Whatever survived is a verified prefix of what was written.
        assert 0 <= len(ticks) <= total
        for k, record in enumerate(ticks):
            assert record["t"] == pytest.approx(float(k + 1))
        if recovery.torn_line is not None:
            assert recovery.torn_reason

    @settings(max_examples=60, deadline=None)
    @given(junk=st.binary(min_size=1, max_size=40))
    def test_appended_junk_never_crashes(self, tmp_path_factory, junk):
        path = tmp_path_factory.mktemp("trace") / "t.trace"
        total = _recorded_trace(path)
        with open(path, "ab") as fh:
            fh.write(junk)
        try:
            meta, ticks, recovery = recover_trace(str(path))
        except ALLOWED:
            return  # junk containing newlines makes two bad lines: refused
        assert len(ticks) == total
        if junk.decode("utf-8", errors="replace").strip():
            assert recovery.torn_line is not None
        # Whitespace-only junk adds no line at all: nothing to tear.
