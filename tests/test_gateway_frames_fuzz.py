"""Property fuzz: wire bytes must decode or fail typed, never crash.

The gateway's frame decoder reads whatever a network hands it, so it owes
the same data-error contract ``test_checkpoint_fuzz.py`` enforces for
checkpoints: for *any* byte stream, in *any* fragmentation, every frame
either decodes to a valid object or raises
:class:`~repro.errors.DataQualityError` /
:class:`~repro.errors.ConfigurationError` — never a bare ``KeyError``,
``UnicodeDecodeError``, ``struct.error`` or ``MemoryError`` from a
hostile length prefix. Three generators attack three layers: raw junk
bytes at the framing layer, structured junk objects at the schema layer,
and corrupted *valid* wire traffic at the boundary between them. The
binary codec of the data frames gets the same treatment (junk after its
version byte, partial rows, bad beacon ids, unknown kinds and codes), and
well-formed frames of wild values (NaN, inf, huge) must cross it bit for
bit, while a data frame in JSON is refused whatever its rows hold. The
held envelope and its ack must refuse every malformation by poisoning the
decoder, and a folded frame must decode exactly as it does alone.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DataQualityError
from repro.gateway import (
    PROTO_VERSION,
    FrameDecoder,
    encode_binary,
    encode_for,
    encode_frame,
    validate_frame,
)
from repro.gateway.frames import (
    BINARY_VERSION,
    MAX_FRAME_BYTES,
    held_envelopes,
    imu_samples,
    scan_samples,
    screen_scan_rows,
)

ALLOWED = (DataQualityError, ConfigurationError)

#: JSON-representable junk for schema-level attacks.
JSON_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10, 2 ** 70),
              st.floats(allow_nan=True, allow_infinity=True),
              st.text(max_size=8)),
    lambda leaf: st.one_of(st.lists(leaf, max_size=4),
                           st.dictionaries(st.text(max_size=6), leaf,
                                           max_size=4)),
    max_leaves=12,
)


def chunked(data: bytes, cuts):
    """Split ``data`` at the given relative cut points."""
    out, prev = [], 0
    for cut in sorted(set(int(c * len(data)) for c in cuts)):
        out.append(data[prev:cut])
        prev = cut
    out.append(data[prev:])
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=256),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_arbitrary_bytes_never_crash(data, cuts):
    decoder = FrameDecoder(max_frame_bytes=4096)
    try:
        for chunk in chunked(data, cuts):
            for frame in decoder.feed(chunk):
                assert isinstance(frame, dict)
        decoder.eof()
    except ALLOWED:
        pass


@settings(max_examples=150, deadline=None)
@given(obj=JSON_JUNK)
def test_any_json_payload_validates_or_fails_typed(obj):
    payload = json.dumps(obj, allow_nan=True).encode("utf-8")
    wire = len(payload).to_bytes(4, "big") + payload
    decoder = FrameDecoder(max_frame_bytes=1 << 20)
    try:
        frames = decoder.feed(wire)
    except ALLOWED:
        return
    for frame in frames:
        try:
            ftype = validate_frame(frame)
        except ALLOWED:
            continue
        # A frame that validates must be materializable without crashing.
        if ftype == "scan":
            scan_samples(frame)
        elif ftype == "imu":
            imu_samples(frame)


@settings(max_examples=150, deadline=None)
@given(pos=st.integers(0, 200), flip=st.integers(1, 255),
       rssi=st.floats(allow_nan=True),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_corrupted_valid_traffic_fails_typed_or_decodes(pos, flip, rssi, cuts):
    wire = b"".join(encode_for(f) for f in [
        {"type": "hello", "client": "c", "proto": PROTO_VERSION},
        {"type": "scan", "seq": 0, "beacon": "b",
         "samples": [[1.0, rssi, 37]]},
        {"type": "bye"},
    ])
    corrupted = bytearray(wire)
    corrupted[pos % len(wire)] ^= flip
    decoder = FrameDecoder(max_frame_bytes=4096)
    decoded = []
    try:
        for chunk in chunked(bytes(corrupted), cuts):
            decoded.extend(decoder.feed(chunk))
        decoder.eof()
    except ALLOWED:
        return
    # The flip may have landed inside a JSON string/number or a binary
    # value and produced a different-but-well-formed stream; schema checks
    # and materialization stay typed too.
    for frame in decoded:
        materialize(frame)


@settings(max_examples=100, deadline=None)
@given(frames=st.lists(
    st.one_of(
        st.builds(lambda c: {"type": "hello", "client": c,
                             "proto": PROTO_VERSION},
                  st.text(max_size=8)),
        st.builds(
            lambda seq, b, rows: {"type": "scan", "seq": seq, "beacon": b,
                                  "samples": rows},
            st.integers(0, 1 << 40), st.text(min_size=1, max_size=8),
            st.lists(st.lists(st.floats(allow_nan=True,
                                        allow_infinity=True),
                              min_size=3, max_size=3), max_size=4)),
        st.just({"type": "bye"}),
    ),
    max_size=5),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_valid_frames_roundtrip_any_fragmentation(frames, cuts):
    wire = b"".join(encode_for(f) for f in frames)
    decoder = FrameDecoder()
    decoded = []
    for chunk in chunked(wire, cuts):
        decoded.extend(decoder.feed(chunk))
    decoder.eof()
    assert len(decoded) == len(frames)
    for sent, got in zip(frames, decoded):
        assert validate_frame(got) == sent["type"]
        if sent["type"] == "scan":
            # Bit for bit: repr tells NaN from NaN and 0.0 from -0.0.
            assert repr(got["samples"]) == repr(
                tuple(tuple(row) for row in sent["samples"]))


# -- binary scan, imu and ack frames ------------------------------------------

BINARY = (DataQualityError,)


def framed(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


def scan_head(seq: int, beacon: bytes) -> bytes:
    return (struct.pack("<BBQH", BINARY_VERSION, 1, seq, len(beacon))
            + beacon)


def decode_one(payload: bytes):
    frames = FrameDecoder(max_frame_bytes=1 << 20).feed(framed(payload))
    assert len(frames) == 1
    return frames[0]


def materialize(frame) -> None:
    """Validate a decoded client frame and build its samples; both may
    refuse typed, neither may raise anything else."""
    try:
        ftype = validate_frame(frame)
    except ALLOWED:
        return
    if ftype == "scan":
        scan_samples(frame)
        screen_scan_rows(frame, 0.5)
    elif ftype == "imu":
        imu_samples(frame)


@settings(max_examples=200, deadline=None)
@given(body=st.binary(max_size=120),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_random_bytes_after_the_version_byte_decode_or_fail_typed(body, cuts):
    decoder = FrameDecoder(max_frame_bytes=4096)
    try:
        frames = []
        for chunk in chunked(framed(bytes([BINARY_VERSION]) + body), cuts):
            frames.extend(decoder.feed(chunk))
        decoder.eof()
    except BINARY:
        return
    for frame in frames:
        materialize(frame)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from([1, 2]), extra=st.integers(1, 200),
       seq=st.integers(0, 2 ** 64 - 1))
def test_row_block_of_a_partial_row_is_refused(kind, extra, seq):
    width = 3 if kind == 1 else 4
    if extra % (8 * width) == 0:
        extra += 1
    head = (scan_head(seq, b"b") if kind == 1
            else struct.pack("<BBQ", BINARY_VERSION, 2, seq))
    with pytest.raises(DataQualityError, match="whole number"):
        decode_one(head + bytes(extra))


@settings(max_examples=100, deadline=None)
@given(beacon=st.binary(min_size=1, max_size=12))
def test_beacon_id_bytes_decode_as_utf8_or_fail_typed(beacon):
    payload = scan_head(0, beacon) + struct.pack("<3d", 1.0, -60.0, 37.0)
    try:
        text = beacon.decode("utf-8")
    except UnicodeDecodeError:
        with pytest.raises(DataQualityError, match="UTF-8"):
            decode_one(payload)
        return
    frame = decode_one(payload)
    assert frame["beacon"] == text
    assert validate_frame(frame) == "scan"


def test_beacon_id_overrunning_the_frame_and_short_headers_are_refused():
    for payload in (scan_head(0, b"abc")[:-1],          # id cut short
                    struct.pack("<BBQH", BINARY_VERSION, 1, 0, 9),
                    bytes([BINARY_VERSION, 1, 0]),       # header cut short
                    struct.pack("<BBQ", BINARY_VERSION, 1, 0)):
        with pytest.raises(DataQualityError):
            decode_one(payload)


def test_deeply_nested_json_fails_typed():
    # Well under the frame size limit, deep enough to exhaust the parser.
    for payload in (b'{"a":' + b"[" * 30000, b'{"a":' * 10000):
        with pytest.raises(DataQualityError, match="not JSON"):
            FrameDecoder().feed(framed(payload))


def test_empty_binary_beacon_id_is_a_schema_refusal():
    frame = decode_one(scan_head(0, b""))
    with pytest.raises(DataQualityError, match="non-empty"):
        validate_frame(frame)


@settings(max_examples=100, deadline=None)
@given(kind=st.integers(0, 255), dup=st.integers(0, 255),
       code=st.integers(0, 255), taken=st.integers(0, 2 ** 32 - 1))
def test_unknown_kinds_dup_flags_and_reason_codes_are_refused(
        kind, dup, code, taken):
    ack = struct.pack("<BBQIBB", BINARY_VERSION, 3, 7, taken, dup, code)
    if dup > 1 or code > 3:
        with pytest.raises(DataQualityError):
            decode_one(ack)
    else:
        got = decode_one(ack)
        assert got["type"] == "ack" and got["taken"] == taken
        assert encode_binary(got) == framed(ack)
    if kind not in (1, 2, 3, 4, 5):
        with pytest.raises(DataQualityError, match="kind"):
            decode_one(struct.pack("<BBQ", BINARY_VERSION, kind, 0)
                       + bytes(24))


def test_ack_of_the_wrong_length_is_refused():
    ack = struct.pack("<BBQIBB", BINARY_VERSION, 3, 7, 1, 0, 0)
    for payload in (ack[:-1], ack + b"\x00"):
        with pytest.raises(DataQualityError, match="ack"):
            decode_one(payload)


def test_unknown_first_byte_poisons_the_decoder():
    for first in (0x00, 0x01, 0x03, 0x20, 0x5B, 0x84, 0xFD):
        decoder = FrameDecoder()
        with pytest.raises(DataQualityError, match="neither JSON"):
            decoder.feed(framed(bytes([first, 1, 2])))
        with pytest.raises(DataQualityError, match="already failed"):
            decoder.feed(encode_frame({"type": "bye"}))
    with pytest.raises(DataQualityError, match="empty"):
        FrameDecoder().feed(framed(b""))


#: Row values the wire may carry: ordinary, non-finite, huge and tiny.
WILD = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308,
                     -1e308, 5e-324, 0.0]),
)
#: JSON additionally carries integers, also past float range.
WILD_JSON = st.one_of(WILD, st.integers(-10, 10),
                      st.sampled_from([2 ** 70, 10 ** 400, -(10 ** 400)]))


@settings(max_examples=200, deadline=None)
@given(seq=st.integers(0, 2 ** 40), beacon=st.text(min_size=1, max_size=6),
       scan_rows=st.lists(st.lists(WILD, min_size=3, max_size=3),
                          max_size=6),
       imu_rows=st.lists(st.lists(WILD, min_size=4, max_size=4),
                         max_size=6))
def test_wild_values_cross_the_wire_bit_exact(
        seq, beacon, scan_rows, imu_rows):
    scan = {"type": "scan", "seq": seq, "beacon": beacon,
            "samples": scan_rows}
    imu = {"type": "imu", "seq": seq, "samples": imu_rows}
    for frame, build in ((scan, scan_samples), (imu, imu_samples)):
        decoded = FrameDecoder().feed(encode_for(frame))[0]
        assert validate_frame(decoded) == frame["type"]
        # The samples built from the rows as sent, bit for bit (repr
        # tells NaN from NaN and 0.0 from -0.0), and the same rejected
        # count.
        assert repr(build(decoded)) == repr(build(frame))
        if frame is scan:
            assert (screen_scan_rows(decoded, 0.5)
                    == screen_scan_rows(frame, 0.5))


@settings(max_examples=200, deadline=None)
@given(scan_rows=st.lists(st.lists(WILD_JSON, min_size=3, max_size=3),
                          max_size=6),
       imu_rows=st.lists(st.lists(WILD_JSON, min_size=4, max_size=4),
                         max_size=6))
def test_wild_json_rows_never_raise_untyped(scan_rows, imu_rows):
    # A data frame in JSON is refused, whatever its rows hold.
    for frame in ({"type": "scan", "seq": 0, "beacon": "b",
                   "samples": scan_rows},
                  {"type": "imu", "seq": 0, "samples": imu_rows}):
        with pytest.raises(DataQualityError, match="must come binary"):
            validate_frame(FrameDecoder().feed(encode_frame(frame))[0])


def test_a_row_is_rejected_for_a_nonfinite_time_or_channel_only():
    nan, inf = float("nan"), float("inf")
    frame = {"type": "scan", "seq": 0, "beacon": "b", "samples": [
        [1.0, -60.0, 37], [nan, -60.0, 37], [1.0, -60.0, nan],
        [1.0, -60.0, inf], [1.0, nan, 37], [-inf, -60.0, 37]]}
    decoded = FrameDecoder().feed(encode_for(frame))[0]
    samples, rejected = scan_samples(decoded)
    assert [s.rssi for s in samples][0] == -60.0
    assert len(samples) == 2 and samples[1].rssi != samples[1].rssi
    assert rejected == 4
    assert screen_scan_rows(decoded, None) == (2, rejected, 0)


# -- the held envelope and its ack --------------------------------------------


def scan_wire(seq: int, beacon: bytes, n_rows: int = 1) -> bytes:
    """One folded frame: a lone binary scan frame's wire bytes."""
    return framed(scan_head(seq, beacon)
                  + struct.pack(f"<{3 * n_rows}d", *[1.0, -60.0, 37.0]
                                * n_rows))


def held(*folded: bytes) -> bytes:
    return bytes([BINARY_VERSION, 4]) + b"".join(folded)


def refused_and_poisoned(payload: bytes, match=None):
    decoder = FrameDecoder(max_frame_bytes=1 << 20)
    with pytest.raises(DataQualityError, match=match):
        decoder.feed(framed(payload))
    with pytest.raises(DataQualityError, match="already failed"):
        decoder.feed(encode_frame({"type": "bye"}))


def test_malformed_envelopes_poison_the_decoder():
    ok = scan_wire(3, b"b1", 2)
    imu = framed(struct.pack("<BBQ", BINARY_VERSION, 2, 4)
                 + struct.pack("<4d", 1.0, 0.5, 0.0, 0.0))
    cases = {
        "empty": (held(), "no frame"),
        "length cut short": (held(ok, ok[:3]), "length"),
        "overrunning": (held(ok, ok[:-1]), "overruns"),
        "partial row": (held(framed(scan_head(0, b"b") + bytes(12))),
                        "whole number"),
        "imu folded": (held(ok, imu), "kind 2"),
        "nested": (held(framed(held(ok)), ok), "nests"),
        "not UTF-8": (held(scan_wire(0, b"\xff\xfe")), "UTF-8"),
        "JSON folded": (held(encode_frame({"type": "bye"})), "binary"),
    }
    for name, (payload, match) in cases.items():
        refused_and_poisoned(payload, match=match)


def test_a_json_envelope_is_a_schema_refusal():
    with pytest.raises(DataQualityError, match="binary"):
        validate_frame({"type": "held", "seq": 0, "frames": []})


def test_an_envelope_of_an_empty_beacon_id_is_a_schema_refusal():
    frame = FrameDecoder().feed(framed(held(
        scan_wire(0, b"a"), scan_wire(1, b""))))[0]
    with pytest.raises(DataQualityError, match="non-empty"):
        validate_frame(frame)


SCAN_FRAMES = st.lists(
    st.builds(lambda seq, b, rows: {"type": "scan", "seq": seq, "beacon": b,
                                    "samples": rows},
              st.integers(0, 2 ** 64 - 1), st.text(min_size=1, max_size=8),
              st.lists(st.lists(WILD, min_size=3, max_size=3), max_size=5)),
    min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(frames=SCAN_FRAMES, cuts=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_an_envelope_folds_each_frame_as_it_travels_alone(frames, cuts):
    (envelope,) = held_envelopes(frames, MAX_FRAME_BYTES)
    assert envelope["seq"] == frames[-1]["seq"]
    decoder = FrameDecoder()
    decoded = []
    for chunk in chunked(encode_binary(envelope), cuts):
        decoded.extend(decoder.feed(chunk))
    decoder.eof()
    (got,) = decoded
    assert validate_frame(got) == "held" and got["seq"] == envelope["seq"]
    assert len(got["frames"]) == len(frames)
    for sent, folded in zip(frames, got["frames"]):
        alone = FrameDecoder().feed(encode_binary(sent))[0]
        assert repr(folded) == repr(alone)
        assert (screen_scan_rows(folded, 0.5)
                == screen_scan_rows(alone, 0.5))


def test_envelopes_split_only_past_the_frame_limit():
    rows = [[1.0, -60.0, 37.0]] * 500  # a 12 kB row block per frame
    frames = [{"type": "scan", "seq": i, "beacon": f"b{i}", "samples": rows}
              for i in range(12)]
    envelopes = held_envelopes(frames, MAX_FRAME_BYTES)
    assert [len(e["frames"]) for e in envelopes] == [5, 5, 2]
    assert [e["seq"] for e in envelopes] == [4, 9, 11]
    for envelope in envelopes:
        assert len(encode_binary(envelope)) - 4 <= MAX_FRAME_BYTES
    # Six would not fit.
    with pytest.raises(ConfigurationError, match="wire limit"):
        encode_binary({"type": "held", "seq": 5, "frames": frames[:6]})
    # A receiver limit above the wire limit folds no more.
    assert held_envelopes(frames, 2 * MAX_FRAME_BYTES) == envelopes


def test_envelopes_keep_within_a_smaller_receiver_limit():
    def scan(seq, n):
        return {"type": "scan", "seq": seq, "beacon": "b01",
                "samples": [[1.0, -60.0, 37.0]] * n}
    # 60 rows: a 1,459-byte folded frame, two to a 4,096-byte envelope.
    # 170 rows: a 4,095-byte payload that fits only alone, since an
    # envelope adds 6 bytes; it goes alone, in its place.
    frames = [scan(0, 60), scan(1, 60), scan(2, 60), scan(3, 170),
              scan(4, 60)]
    out = held_envelopes(frames, 4096)
    assert [o["type"] for o in out] == ["held", "held", "scan", "held"]
    assert [o["seq"] for o in out] == [1, 2, 3, 4]
    assert out[2] is frames[3]
    assert len(encode_binary(frames[3])) - 4 == 4095
    for o in out:
        wire = encode_binary(o)
        assert len(wire) - 4 <= 4096
        assert FrameDecoder(4096).feed(wire)


@settings(max_examples=200, deadline=None)
@given(body=st.binary(max_size=160),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_random_envelope_bytes_decode_or_fail_typed(body, cuts):
    for kind in (4, 5):
        decoder = FrameDecoder(max_frame_bytes=4096)
        try:
            frames = []
            for chunk in chunked(framed(bytes([BINARY_VERSION, kind]) + body),
                                 cuts):
                frames.extend(decoder.feed(chunk))
            decoder.eof()
        except BINARY:
            continue
        for frame in frames:
            try:
                if validate_frame(frame) == "held":
                    for folded in frame["frames"]:
                        screen_scan_rows(folded, 0.5)
            except ALLOWED:
                pass


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.text(max_size=6), max_size=5),
       taken=st.integers(0, 2 ** 32 - 1), seq=st.integers(0, 2 ** 64 - 1))
def test_held_ack_round_trips_and_refuses_junk(ids, taken, seq):
    ack = {"type": "ack", "seq": seq, "taken": taken, "admitted": ids}
    wire = encode_binary(ack)
    assert FrameDecoder().feed(wire) == [ack]
    payload = wire[4:]
    for bad, match in ((payload + b"\x00", "past its ids"),
                       (payload[:15], "truncated")):
        refused_and_poisoned(bad, match=match)
    if ids:
        refused_and_poisoned(payload[:-1], match="overruns|inside")
    bad_id = struct.pack("<BBQIH", BINARY_VERSION, 5, seq, taken, 1) \
        + struct.pack("<H", 1) + b"\xff"
    refused_and_poisoned(bad_id, match="UTF-8")
