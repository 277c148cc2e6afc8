"""The gateway wire protocol: length-prefixed JSON frames.

One frame on the wire is a 4-byte big-endian unsigned length followed by
that many bytes of UTF-8 JSON encoding a single object. The format is
deliberately the dumbest thing that works — a phone-side client can speak
it from any language in ten lines — while still being *checkable* at every
layer: the length prefix bounds memory before a byte of payload is parsed,
the JSON layer rejects binary garbage, and :func:`validate_frame` pins the
schema of every frame type before the gateway acts on it.

Decoding is **incremental**: a :class:`FrameDecoder` accepts arbitrary
chunkings of the byte stream (TCP segments, a slow-loris client dribbling
one byte per second) and yields complete frames as they close. Every
malformation is a typed :class:`~repro.errors.DataQualityError` — wire
bytes are *data*, and the data-error contract of the rest of the library
(checkpoints, traces) applies to them verbatim: the caller either gets a
valid frame or a typed refusal it can count, event, and answer; never a
``KeyError`` out of a half-parsed dict.

Frame schema (``proto`` version 1):

======== ==============================================================
type     payload
======== ==============================================================
hello    ``{"type":"hello","client":str,"proto":1}``
scan     ``{"type":"scan","seq":int,"beacon":str,
         "samples":[[t,rssi,channel],...]}``
imu      ``{"type":"imu","seq":int,
         "samples":[[t,accel,gyro_z,mag_heading],...]}``
bye      ``{"type":"bye"}``
welcome  ``{"type":"welcome","proto":1}``      (gateway → client)
ack      ``{"type":"ack","seq":int,"taken":int}``  (gateway → client)
error    ``{"type":"error","code":str,"detail":str}`` (gateway → client)
======== ==============================================================
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, DataQualityError
from repro.types import ImuSample, RssiSample

__all__ = [
    "PROTO_VERSION",
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "encode_frame",
    "validate_frame",
    "scan_samples",
    "screen_scan_rows",
    "imu_samples",
]

#: Protocol version spoken by this module (echoed in hello/welcome).
PROTO_VERSION = 1

#: Default ceiling on one frame's payload. A length prefix past this is
#: refused before any allocation — the oversized-frame DoS is answered at
#: a cost of four bytes.
MAX_FRAME_BYTES = 64 * 1024

_LEN = struct.Struct(">I")

#: The exact types a sample row's values may have (bool excluded).
_NUMBER = (int, float)

#: Client-originated frame types the gateway understands.
CLIENT_FRAME_TYPES = ("hello", "scan", "imu", "bye")


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Serialize one frame object to its wire bytes.

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
    if len(payload) > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"frame payload {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte wire limit"
        )
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental wire-frame decoder with bounded buffering.

    Feed it byte chunks in any fragmentation; it returns the complete
    frames each chunk closes. All failure modes raise
    :class:`~repro.errors.DataQualityError`: an oversized length prefix, a
    payload that is not UTF-8, not JSON, or not a JSON object, and a
    stream that ends mid-frame (:meth:`eof`). After an error the decoder
    is poisoned — framing on a corrupted stream cannot resynchronize, so
    the connection must be dropped.
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
        self._buf.extend(data)
        frames: List[Dict[str, Any]] = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buf)
            if length > self.max_frame_bytes:
                self._poisoned = True
                raise DataQualityError(
                    f"frame length {length} exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            if len(self._buf) < _LEN.size + length:
                return frames
            payload = bytes(self._buf[_LEN.size:_LEN.size + length])
            del self._buf[:_LEN.size + length]
            frames.append(self._parse(payload))
            self.frames_decoded += 1

    def _parse(self, payload: bytes) -> Dict[str, Any]:
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            self._poisoned = True
            raise DataQualityError(f"frame payload is not UTF-8: {exc}")
        try:
            obj = json.loads(text)
        except ValueError as exc:
            self._poisoned = True
            raise DataQualityError(f"frame payload is not JSON: {exc}")
        if not isinstance(obj, dict):
            self._poisoned = True
            raise DataQualityError(
                f"frame payload must be a JSON object, "
                f"got {type(obj).__name__}"
            )
        return obj

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


def validate_frame(frame: Dict[str, Any]) -> str:
    """Check a decoded client frame against the proto-1 schema.

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
        proto = _require(frame, "proto", (int,), "hello")
        if proto != PROTO_VERSION:
            raise DataQualityError(
                f"unsupported protocol version {proto} "
                f"(this gateway speaks {PROTO_VERSION})"
            )
    elif ftype == "scan":
        seq = _require(frame, "seq", (int,), "scan")
        if seq < 0:
            raise DataQualityError("scan frame seq must be >= 0")
        _require(frame, "beacon", (str,), "scan")
        if not frame["beacon"]:
            raise DataQualityError("scan frame beacon id must be non-empty")
        samples = _require(frame, "samples", (list,), "scan")
        for row in samples:
            # JSON decodes to exact int/float, and type(True) is bool.
            if (not isinstance(row, list) or len(row) != 3
                    or not all(type(v) in _NUMBER for v in row)):
                raise DataQualityError(
                    "scan frame samples must be [t, rssi, channel] "
                    "number triples"
                )
    elif ftype == "imu":
        seq = _require(frame, "seq", (int,), "imu")
        if seq < 0:
            raise DataQualityError("imu frame seq must be >= 0")
        samples = _require(frame, "samples", (list,), "imu")
        for row in samples:
            if (not isinstance(row, list) or len(row) != 4
                    or not all(type(v) in _NUMBER for v in row)):
                raise DataQualityError(
                    "imu frame samples must be "
                    "[t, accel, gyro_z, mag_heading] number quadruples"
                )
    # "bye" carries no payload.
    return ftype


def scan_samples(
    frame: Dict[str, Any],
) -> Tuple[List[RssiSample], int]:
    """Materialize a validated scan frame's rows, screening non-finite times.

    Returns ``(samples, rejected)`` — rows whose timestamp is not finite
    are dropped here (a poisoned timestamp would corrupt every later
    windowing decision), counted in ``rejected`` for the gateway to event.
    Non-finite RSSI is *kept*: the repair-mode pipeline sanitizes values
    per solve, and dropping them at the edge would hide the degradation
    from the sanitization report.
    """
    beacon_id = str(frame["beacon"])
    out: List[RssiSample] = []
    rejected = 0
    for t, rssi, channel in frame["samples"]:
        if not math.isfinite(t):
            rejected += 1
            continue
        out.append(RssiSample(float(t), float(rssi), beacon_id, int(channel)))
    return out, rejected


def screen_scan_rows(
    frame: Dict[str, Any], horizon: Optional[float],
) -> Tuple[int, int, int]:
    """Screen a validated scan frame's rows without materializing them.

    Returns ``(kept, rejected, late)``: ``rejected`` counts non-finite
    timestamps, as :func:`scan_samples` does; ``late`` the finite rows
    older than ``horizon`` (``None`` before the gateway's first tick);
    ``kept`` the rest. The gateway books these counts for a frame whose
    beacon the fleet refused.
    """
    kept = rejected = late = 0
    for t, _rssi, _channel in frame["samples"]:
        if not math.isfinite(t):
            rejected += 1
        elif horizon is not None and float(t) < horizon:
            late += 1
        else:
            kept += 1
    return kept, rejected, late


def imu_samples(frame: Dict[str, Any]) -> Tuple[List[ImuSample], int]:
    """Materialize a validated imu frame's rows (same screening contract)."""
    out: List[ImuSample] = []
    rejected = 0
    for t, accel, gyro_z, mag in frame["samples"]:
        if not math.isfinite(t):
            rejected += 1
            continue
        out.append(ImuSample(float(t), float(accel), float(gyro_z),
                             float(mag)))
    return out, rejected
