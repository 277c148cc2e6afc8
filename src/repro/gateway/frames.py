"""The gateway wire protocol: length-prefixed frames, JSON or packed binary.

One frame on the wire is a 4-byte big-endian unsigned length followed by
that many bytes of payload. Two codecs share that prefix, and the decoder
picks one per payload from its first byte:

* ``{`` — UTF-8 JSON encoding a single object: the four control frames
  ``hello``, ``welcome``, ``bye`` and ``error``.
* :data:`BINARY_VERSION` (``0x02``) — a packed little-endian ``struct``:
  the data frames ``scan``, ``imu`` and ``ack``, the ``held`` envelope
  and its ack. Its rows are one block of ``<d`` values, so a frame is
  packed and unpacked in one call, and its layout fixes every row's arity
  and value type.
* any other byte is a typed refusal.

:func:`encode_for` picks the codec from the frame type, so both ends
encode every frame through the one call.

Every layer stays *checkable*: the length prefix bounds memory before a
byte of payload is parsed, each codec rejects what does not parse, and
:func:`validate_frame` pins the schema of every frame type before the
gateway acts on it, including the codec it came in: a data frame in JSON
is refused. Binary rows carry f64 values exactly, so a sample reaches the
fleet bit-identical.

Decoding is **incremental**: a :class:`FrameDecoder` accepts arbitrary
chunkings of the byte stream (TCP segments, a slow-loris client dribbling
one byte per second) and yields complete frames as they close. Every
malformation is a typed :class:`~repro.errors.DataQualityError` — wire
bytes are *data*, and the data-error contract of the rest of the library
(checkpoints, traces) applies to them verbatim: the caller either gets a
valid frame or a typed refusal it can count, event, and answer; never a
``KeyError`` out of a half-parsed dict.

There is one protocol, :data:`PROTO_VERSION`. The client offers it in
``hello``; a hello offering less is refused, and one offering more is
welcomed with :data:`PROTO_VERSION`. A client folds the scan frames of
beacons the fleet refused into one ``held`` envelope, each frame exactly
as it would travel alone, answered by one ack.

JSON frame schema (the control frames):

======== ==============================================================
type     payload
======== ==============================================================
hello    ``{"type":"hello","client":str,"proto":int >= 3}``
bye      ``{"type":"bye"}``
welcome  ``{"type":"welcome","proto":3}``  (gateway → client)
error    ``{"type":"error","code":str,"detail":str}`` (gateway → client)
======== ==============================================================

Binary frame layout (all little-endian; ``B`` u8, ``H`` u16, ``I`` u32,
``Q`` u64, ``d`` f64):

======== ==============================================================
kind     payload
======== ==============================================================
scan (1) ``<BBQH`` version, kind, seq, beacon-id length; the beacon id
         (UTF-8); rows of ``<3d`` (t, rssi, channel)
imu (2)  ``<BBQ`` version, kind, seq; rows of ``<4d``
         (t, accel, gyro_z, mag_heading)
ack (3)  ``<BBQIBB`` version, kind, seq, taken, dup (0/1), refusal code
         (0 none, 1 ``max_beacons``, 2 ``max_total_sessions``,
         3 ``max_sessions``)
held (4) ``<BB`` version, kind; then one or more folded scan frames, each
         its lone wire bytes (``>I`` length + a kind-1 payload). It
         travels under its last folded frame's seq
ack (5)  the held envelope's ack: ``<BBQIH`` version, kind, seq, taken,
         admitted count; then per admitted beacon a ``<H`` length and
         its UTF-8 id. It decodes to an ``ack`` with an ``admitted``
         list
======== ==============================================================

A row block whose length is not a whole number of rows, a beacon id that
overruns the payload or is not UTF-8, an unknown kind, dup flag or
refusal code, an empty envelope, and a folded frame that overruns its
envelope or is not a scan (an envelope included): each is a typed refusal
that poisons the decoder, as a JSON syntax error does. An empty beacon id
parses and is refused by :func:`validate_frame`.
"""

from __future__ import annotations

import json
import math
import struct
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, DataQualityError
from repro.types import ImuSample, RssiSample

__all__ = [
    "PROTO_VERSION",
    "BINARY_VERSION",
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "encode_frame",
    "encode_binary",
    "encode_for",
    "held_envelopes",
    "validate_frame",
    "scan_samples",
    "screen_scan_rows",
    "imu_samples",
]

#: The protocol version this module speaks (offered in hello).
PROTO_VERSION = 3

#: First payload byte of a binary frame.
BINARY_VERSION = 2

#: Default ceiling on one frame's payload. A length prefix past this is
#: refused before any allocation — the oversized-frame DoS is answered at
#: a cost of four bytes.
MAX_FRAME_BYTES = 64 * 1024

_LEN = struct.Struct(">I")
_JSON_START = ord("{")

_SCAN_HEAD = struct.Struct("<BBQH")
_IMU_HEAD = struct.Struct("<BBQ")
_ACK = struct.Struct("<BBQIBB")
_HELD_HEAD = struct.Struct("<BB")
_HELD_ACK = struct.Struct("<BBQIH")
_ID_LEN = struct.Struct("<H")
_SCAN, _IMU, _ACK_KIND, _HELD, _HELD_ACK_KIND = 1, 2, 3, 4, 5

#: Values per row of a scan and of an imu frame.
_WIDTH = {"scan": 3, "imu": 4}

#: Frame types with a binary form.
_BINARY_TYPES = ("scan", "imu", "ack", "held")

#: Ack refusal codes: index = code, 0 = not refused.
_REFUSALS = (None, "max_beacons", "max_total_sessions", "max_sessions")
_REFUSAL_CODE = {reason: code for code, reason in enumerate(_REFUSALS)}

#: Client-originated frame types the gateway understands.
CLIENT_FRAME_TYPES = ("hello", "scan", "imu", "held", "bye")


def _framed(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"frame payload {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte wire limit"
        )
    return _LEN.pack(len(payload)) + payload


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Serialize one frame object to its JSON wire bytes.

    Raises :class:`~repro.errors.ConfigurationError` when the object is not
    JSON-serializable or exceeds :data:`MAX_FRAME_BYTES` — encoding errors
    are caller bugs, not wire-data pathologies.
    """
    try:
        payload = json.dumps(
            obj, separators=(",", ":"), allow_nan=True
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"frame is not JSON-serializable: {exc}")
    return _framed(payload)


def encode_binary(obj: Dict[str, Any]) -> bytes:
    """Serialize a ``scan``, ``imu``, ``ack`` or ``held`` frame object to
    its binary wire bytes.

    Takes the same objects as :func:`encode_frame`; an ack with an
    ``admitted`` list is the held envelope's ack. Raises
    :class:`~repro.errors.ConfigurationError` for any other frame type, a
    row of the wrong arity, a value that is not a number, a ``seq`` or
    ``taken`` outside its unsigned field, an unknown refusal reason, an
    envelope that folds nothing or a frame that is not a scan, or a
    payload past :data:`MAX_FRAME_BYTES`.
    """
    try:
        return _framed(_binary_payload(obj))
    except (KeyError, TypeError, AttributeError, OverflowError,
            struct.error) as exc:
        raise ConfigurationError(f"frame is not binary-encodable: {exc!r}")


def _binary_payload(obj: Dict[str, Any]) -> bytes:
    ftype = obj.get("type")
    if ftype == "held":
        folded = obj["frames"]
        if not folded or any(f.get("type") != "scan" for f in folded):
            raise ConfigurationError(
                "a held envelope folds one or more scan frames")
        return _HELD_HEAD.pack(BINARY_VERSION, _HELD) + b"".join(
            _LEN.pack(len(p)) + p for p in map(_binary_payload, folded))
    if ftype == "ack" and "admitted" in obj:
        ids = [b.encode("utf-8") for b in obj["admitted"]]
        return _HELD_ACK.pack(
            BINARY_VERSION, _HELD_ACK_KIND, obj["seq"], obj["taken"],
            len(ids)) + b"".join(_ID_LEN.pack(len(i)) + i for i in ids)
    if ftype == "ack":
        return _ACK.pack(
            BINARY_VERSION, _ACK_KIND, obj["seq"], obj["taken"],
            1 if obj.get("dup") else 0, _REFUSAL_CODE[obj.get("refused")])
    if ftype not in _WIDTH:
        raise ConfigurationError(f"frame type {ftype!r} has no binary form")
    width = _WIDTH[ftype]
    rows = obj["samples"]
    if any(map(width.__ne__, map(len, rows))):
        raise ConfigurationError(
            f"{ftype} frame rows must hold {width} values")
    block = struct.pack(f"<{width * len(rows)}d", *chain.from_iterable(rows))
    if ftype == "imu":
        return _IMU_HEAD.pack(BINARY_VERSION, _IMU, obj["seq"]) + block
    beacon = obj["beacon"].encode("utf-8")
    return _SCAN_HEAD.pack(BINARY_VERSION, _SCAN, obj["seq"],
                           len(beacon)) + beacon + block


def encode_for(obj: Dict[str, Any]) -> bytes:
    """Serialize a frame object in its codec: ``scan``, ``imu``, ``ack``
    and ``held`` frames binary, the control frames JSON."""
    if obj.get("type") in _BINARY_TYPES:
        return encode_binary(obj)
    return encode_frame(obj)


def held_envelopes(frames: Sequence[Dict[str, Any]],
                   limit: int) -> List[Dict[str, Any]]:
    """Fold scan frames, in order, into ``held`` envelopes whose payloads
    stay within ``limit`` bytes (the receiver's frame limit, capped at
    :data:`MAX_FRAME_BYTES`).

    An envelope closes only when the next frame would take it past the
    limit; each travels under the seq of its last folded frame. A frame
    too large to fit in an envelope even alone is returned as it is, in
    its place in the order, to be sent alone.
    """
    limit = min(limit, MAX_FRAME_BYTES)
    out: List[Dict[str, Any]] = []
    group: List[Dict[str, Any]] = []
    size = _HELD_HEAD.size
    for frame in frames:
        n = (_LEN.size + _SCAN_HEAD.size + len(frame["beacon"].encode("utf-8"))
             + 24 * len(frame["samples"]))
        alone = _HELD_HEAD.size + n > limit
        if group and (alone or size + n > limit):
            out.append({"type": "held", "seq": group[-1]["seq"],
                        "frames": group})
            group, size = [], _HELD_HEAD.size
        if alone:
            out.append(frame)
            continue
        group.append(frame)
        size += n
    if group:
        out.append({"type": "held", "seq": group[-1]["seq"], "frames": group})
    return out


def _decode_json(payload: bytes) -> Dict[str, Any]:
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataQualityError(f"frame payload is not UTF-8: {exc}")
    try:
        # A JSON text that starts with "{" is an object or a syntax error;
        # nesting past the parser's recursion limit is refused the same way.
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataQualityError(f"frame payload is not JSON: {exc}")


def _rows(payload: bytes, start: int, width: int,
          what: str) -> Tuple[Tuple[float, ...], ...]:
    """A binary frame's row block, as one tuple of ``width``-value rows."""
    size = len(payload) - start
    if size % (8 * width):
        raise DataQualityError(
            f"{what} frame row block of {size} bytes is not a whole "
            f"number of {width}-value rows")
    values = iter(struct.unpack_from(f"<{size // 8}d", payload, start))
    return tuple(zip(*(values,) * width))


def _decode_held(payload: bytes) -> Dict[str, Any]:
    """A held envelope: its folded frames, each decoded as a lone scan."""
    frames = []
    pos, end = _HELD_HEAD.size, len(payload)
    while pos < end:
        if end - pos < _LEN.size:
            raise DataQualityError(
                "held envelope ends inside a folded frame's length")
        (length,) = _LEN.unpack_from(payload, pos)
        start, pos = pos + _LEN.size, pos + _LEN.size + length
        if pos > end:
            raise DataQualityError(
                f"folded frame of {length} bytes overruns its held envelope")
        if length < _HELD_HEAD.size or payload[start] != BINARY_VERSION:
            raise DataQualityError("folded frame is not a binary frame")
        kind = payload[start + 1]
        if kind != _SCAN:
            raise DataQualityError(
                "held envelope nests another envelope" if kind == _HELD
                else f"held envelope folds a frame of kind {kind}, not a "
                f"scan")
        frames.append(_decode_binary(payload[start:pos]))
    if not frames:
        raise DataQualityError("held envelope folds no frame")
    return {"type": "held", "seq": frames[-1]["seq"], "frames": tuple(frames)}


def _decode_held_ack(payload: bytes) -> Dict[str, Any]:
    if len(payload) < _HELD_ACK.size:
        raise DataQualityError("held ack header is truncated")
    _, _, seq, taken, n = _HELD_ACK.unpack_from(payload)
    admitted = []
    pos = _HELD_ACK.size
    for _ in range(n):
        if len(payload) - pos < _ID_LEN.size:
            raise DataQualityError("held ack ends inside a beacon id length")
        stop = pos + _ID_LEN.size + _ID_LEN.unpack_from(payload, pos)[0]
        if stop > len(payload):
            raise DataQualityError("held ack beacon id overruns the frame")
        try:
            admitted.append(payload[pos + _ID_LEN.size:stop].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataQualityError(
                f"held ack beacon id is not UTF-8: {exc}")
        pos = stop
    if pos != len(payload):
        raise DataQualityError(
            f"held ack carries {len(payload) - pos} bytes past its ids")
    return {"type": "ack", "seq": seq, "taken": taken, "admitted": admitted}


def _decode_binary(payload: bytes) -> Dict[str, Any]:
    if len(payload) >= 2 and payload[1] == _HELD:
        return _decode_held(payload)
    if len(payload) >= 2 and payload[1] == _HELD_ACK_KIND:
        return _decode_held_ack(payload)
    if len(payload) < _IMU_HEAD.size:
        raise DataQualityError(
            f"binary frame of {len(payload)} bytes is shorter than its "
            f"header")
    _, kind, seq = _IMU_HEAD.unpack_from(payload)
    if kind == _SCAN:
        if len(payload) < _SCAN_HEAD.size:
            raise DataQualityError("binary scan frame header is truncated")
        n = _SCAN_HEAD.unpack_from(payload)[3]
        start = _SCAN_HEAD.size + n
        if start > len(payload):
            raise DataQualityError(
                f"binary scan frame beacon id of {n} bytes overruns the "
                f"frame")
        try:
            beacon = payload[_SCAN_HEAD.size:start].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataQualityError(
                f"binary scan frame beacon id is not UTF-8: {exc}")
        return {"type": "scan", "seq": seq, "beacon": beacon,
                "samples": _rows(payload, start, 3, "scan")}
    if kind == _IMU:
        return {"type": "imu", "seq": seq,
                "samples": _rows(payload, _IMU_HEAD.size, 4, "imu")}
    if kind == _ACK_KIND:
        if len(payload) != _ACK.size:
            raise DataQualityError(
                f"binary ack frame must be {_ACK.size} bytes, got "
                f"{len(payload)}")
        _, _, seq, taken, dup, code = _ACK.unpack(payload)
        if dup > 1:
            raise DataQualityError(f"binary ack dup flag {dup} is not 0/1")
        if code >= len(_REFUSALS):
            raise DataQualityError(f"unknown ack refusal code {code}")
        ack: Dict[str, Any] = {"type": "ack", "seq": seq, "taken": taken}
        if dup:
            ack["dup"] = True
        if code:
            ack["refused"] = _REFUSALS[code]
        return ack
    raise DataQualityError(f"unknown binary frame kind {kind}")


class FrameDecoder:
    """Incremental wire-frame decoder with bounded buffering.

    Feed it byte chunks in any fragmentation; it returns the complete
    frames each chunk closes, JSON and binary payloads alike. All failure
    modes raise :class:`~repro.errors.DataQualityError`: an oversized
    length prefix, an empty payload or one whose first byte names no
    codec, a JSON payload that is not UTF-8 or not JSON, a malformed
    binary payload (a held envelope or its ack included), and a stream
    that ends mid-frame (:meth:`eof`). After an error the decoder is
    poisoned — framing on a corrupted stream cannot resynchronize, so the
    connection must be dropped.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        if max_frame_bytes < 2:
            raise ConfigurationError("max_frame_bytes must be >= 2")
        self.max_frame_bytes = int(max_frame_bytes)
        self._buf = bytearray()
        self._poisoned = False
        #: Total frames decoded over the connection's lifetime.
        self.frames_decoded = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume one chunk; returns every frame it completed (in order)."""
        if self._poisoned:
            raise DataQualityError(
                "frame stream already failed; connection must be reset"
            )
        # A chunk that starts on a frame boundary (the common case) is
        # parsed in place; only a partial frame's bytes are buffered.
        buf = data
        if self._buf:
            self._buf += data
            buf = self._buf
        frames: List[Dict[str, Any]] = []
        pos, end = 0, len(buf)
        while end - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(buf, pos)
            if length > self.max_frame_bytes:
                self._poisoned = True
                raise DataQualityError(
                    f"frame length {length} exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            stop = pos + _LEN.size + length
            if stop > end:
                break
            frames.append(self._parse(buf[pos + _LEN.size:stop]))
            self.frames_decoded += 1
            pos = stop
        if buf is self._buf:
            del self._buf[:pos]
        else:
            self._buf += buf[pos:]
        return frames

    def _parse(self, payload: bytes) -> Dict[str, Any]:
        try:
            if not payload:
                raise DataQualityError("frame payload is empty")
            first = payload[0]
            if first == _JSON_START:
                return _decode_json(payload)
            if first == BINARY_VERSION:
                return _decode_binary(payload)
            raise DataQualityError(
                f"frame payload starts with byte 0x{first:02x}: neither "
                f"JSON ('{{') nor binary version {BINARY_VERSION}")
        except DataQualityError:
            self._poisoned = True
            raise

    def eof(self) -> None:
        """Declare the stream closed; raises on a truncated final frame."""
        if self._buf and not self._poisoned:
            self._poisoned = True
            raise DataQualityError(
                f"stream ended mid-frame with {len(self._buf)} "
                f"buffered bytes"
            )


def _require(frame: Dict[str, Any], key: str, types: tuple, what: str) -> Any:
    if key not in frame:
        raise DataQualityError(f"{what} frame missing {key!r}")
    value = frame[key]
    # bool is an int subclass; a frame saying {"seq": true} is junk.
    if isinstance(value, bool) and bool not in types:
        raise DataQualityError(
            f"{what} frame field {key!r} must be "
            f"{'/'.join(t.__name__ for t in types)}, got bool"
        )
    if not isinstance(value, types):
        raise DataQualityError(
            f"{what} frame field {key!r} must be "
            f"{'/'.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}"
        )
    return value


def _require_binary(frame: Dict[str, Any], key: str, what: str) -> None:
    """Refuse a data frame that did not come binary: the binary decoder
    hands its rows (and an envelope its frames) over as a tuple, whose
    layout fixed every row's arity and value type, and JSON never decodes
    to a tuple."""
    if type(frame.get(key)) is not tuple:
        raise DataQualityError(f"{what} frame must come binary")


def validate_frame(frame: Dict[str, Any]) -> str:
    """Check a decoded client frame against its schema and codec.

    Returns the frame type on success; raises
    :class:`~repro.errors.DataQualityError` naming the first violated
    constraint otherwise. Sample *values* (finiteness of timestamps, RSSI
    plausibility) are deliberately not judged here — the gateway screens
    and counts those per sample so a frame with one poisoned reading does
    not forfeit its siblings.
    """
    if not isinstance(frame, dict):
        raise DataQualityError("frame must be a JSON object")
    ftype = frame.get("type")
    if ftype not in CLIENT_FRAME_TYPES:
        raise DataQualityError(
            f"unknown frame type {ftype!r} "
            f"(expected one of {CLIENT_FRAME_TYPES})"
        )
    if ftype == "hello":
        _require(frame, "client", (str,), "hello")
        if _require(frame, "proto", (int,), "hello") < PROTO_VERSION:
            raise DataQualityError(
                f"hello frame proto must be >= {PROTO_VERSION}")
    elif ftype == "scan":
        seq = _require(frame, "seq", (int,), "scan")
        if seq < 0:
            raise DataQualityError("scan frame seq must be >= 0")
        _require(frame, "beacon", (str,), "scan")
        if not frame["beacon"]:
            raise DataQualityError("scan frame beacon id must be non-empty")
        _require_binary(frame, "samples", "scan")
    elif ftype == "imu":
        seq = _require(frame, "seq", (int,), "imu")
        if seq < 0:
            raise DataQualityError("imu frame seq must be >= 0")
        _require_binary(frame, "samples", "imu")
    elif ftype == "held":
        _require_binary(frame, "frames", "held")
        for folded in frame["frames"]:
            validate_frame(folded)
    # "bye" carries no payload.
    return ftype


def _scan_rows(
    frame: Dict[str, Any],
) -> Tuple[List[Tuple[float, float, int]], int]:
    """The one screening rule for a validated scan frame's rows.

    A row is rejected when its timestamp or channel is not finite: a
    poisoned timestamp would corrupt every later windowing decision, and
    a channel must be an integer. Returns the kept rows as
    ``(t, rssi, channel)`` and the rejected count. Non-finite RSSI is
    *kept*: the repair-mode pipeline sanitizes values per solve, and
    dropping them at the edge would hide the degradation from the
    sanitization report.
    """
    kept = []
    rejected = 0
    isfinite = math.isfinite
    for t, rssi, channel in frame["samples"]:
        if isfinite(t) and isfinite(channel):
            kept.append((t, rssi, int(channel)))
        else:
            rejected += 1
    return kept, rejected


def scan_samples(
    frame: Dict[str, Any],
) -> Tuple[List[RssiSample], int]:
    """Materialize a validated scan frame's rows.

    Returns ``(samples, rejected)``: the rows the screening rule keeps, as
    samples, and the count it rejected, for the gateway to signal.
    """
    beacon_id = str(frame["beacon"])
    rows, rejected = _scan_rows(frame)
    return [RssiSample(t, rssi, beacon_id, channel)
            for t, rssi, channel in rows], rejected


def screen_scan_rows(
    frame: Dict[str, Any], horizon: Optional[float],
) -> Tuple[int, int, int]:
    """Screen a validated scan frame's rows without materializing them.

    Returns ``(kept, rejected, late)``: ``rejected`` counts what
    :func:`scan_samples` rejects; ``late`` the other rows older than
    ``horizon`` (``None`` before the gateway's first tick); ``kept`` the
    rest. The gateway books these counts for a frame whose beacon the
    fleet refused.
    """
    rows, rejected = _scan_rows(frame)
    late = 0 if horizon is None else sum(t < horizon for t, _, _ in rows)
    return len(rows) - late, rejected, late


def imu_samples(frame: Dict[str, Any]) -> Tuple[List[ImuSample], int]:
    """Materialize a validated imu frame's rows: a row whose timestamp is
    not finite is rejected (the rule of :func:`scan_samples`); other
    non-finite values are the IMU ring's to refuse."""
    out: List[ImuSample] = []
    rejected = 0
    isfinite = math.isfinite
    for t, accel, gyro_z, mag in frame["samples"]:
        if isfinite(t):
            out.append(ImuSample(t, accel, gyro_z, mag))
        else:
            rejected += 1
    return out, rejected
