"""Durable record/replay for the ingestion gateway.

A **trace** is an append-only JSON-lines file capturing everything that
crossed the gateway→fleet boundary, in commit order: one ``tick`` record
per :meth:`~repro.gateway.IngestionGateway.tick` holding the drained scan
and IMU batches plus a digest of the snapshots the fleet produced. Because
the gateway's tick drain is deterministic (sorted beacons, FIFO queues),
the recorded batches are sufficient to reproduce the run **bit-identically**
— all the arrival-time chaos of the async edge happened *before* the tap.

Integrity is a per-record `blake2b` hash chain: each record's ``h`` is
``blake2b(prev_h + canonical_json(record_minus_h))`` from a fixed genesis
string, and a final ``end`` record seals the tick count. Truncation,
reordering, or any flipped byte breaks the chain at the first affected
record, and :func:`read_trace` refuses with a typed
:class:`~repro.errors.DataQualityError` naming the line. Trace bytes are
*data* — nothing in this module raises an untyped exception for anything a
file can contain.

Crashes are the *normal* way a trace ends: a process that dies mid-run
leaves no ``end`` seal and possibly one torn final line, and that trace —
the incident you most want to replay — must stay readable.
``read_trace(path, allow_unsealed=True)`` (or :func:`recover_trace`, which
also returns the structured :class:`TraceRecovery` report) accepts a
crash-truncated trace: it drops **at most one** torn final line and
returns the hash-verified prefix. Corruption anywhere *before* the tail —
a mid-file bit flip, a reordered line, a truncate-and-append — is still
refused in both modes; only the one write a crash can tear is forgiven.

:func:`replay` rebuilds a gateway+fleet from the trace header's recorded
configuration, re-drives every tick, and compares each tick's snapshot
digest against the recorded one — a self-contained determinism check that
needs nothing from the original process.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, DataQualityError
from repro.fleet import FleetConfig, TrackingFleet
from repro.gateway.gateway import GatewayConfig, IngestionGateway
from repro.service import ServiceConfig
from repro.service.session import (
    PipelineFactory,
    SessionConfig,
    SessionSnapshot,
    default_pipeline_factory,
    snapshot_digest,
)
from repro.sim.harness import Mismatch, digest_mismatches
from repro.types import ImuSample, RssiSample

__all__ = [
    "TRACE_FORMAT",
    "TraceRecovery",
    "TraceWriter",
    "read_trace",
    "recover_trace",
    "replay",
    "ReplayResult",
    "snapshot_digest",
    "trace_meta",
]

#: Durability policies a :class:`TraceWriter` (and
#: :class:`~repro.obs.sinks.JsonLinesSink`) can write under.
DURABILITY_POLICIES = ("flush", "fsync")

#: Schema version written in the trace header.
TRACE_FORMAT = 1

#: Hash-chain genesis: the "previous hash" of the header record.
GENESIS = "repro-trace-v1"

#: Hex chars of blake2b kept per record (16 bytes — plenty for integrity,
#: short enough to keep traces grep-able).
_HASH_LEN = 32


def _canonical(record: Dict[str, Any]) -> str:
    """The canonical JSON text a record is hashed over (sans ``h``)."""
    body = {k: v for k, v in record.items() if k != "h"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def _chain(prev_h: str, record: Dict[str, Any]) -> str:
    digest = blake2b((prev_h + _canonical(record)).encode("utf-8"),
                     digest_size=_HASH_LEN // 2)
    return digest.hexdigest()


def trace_meta(gateway: IngestionGateway) -> Dict[str, Any]:
    """The header metadata :func:`replay` needs to rebuild the topology."""
    fleet_cfg = gateway.fleet.config
    service_cfg = fleet_cfg.service
    return {
        "gateway": gateway.config.to_dict(),
        "fleet": {
            "n_shards": fleet_cfg.n_shards,
            "max_total_sessions": fleet_cfg.max_total_sessions,
            "router_salt": fleet_cfg.router_salt,
            "service": {
                "imu_buffer": service_cfg.imu_buffer,
                "imu_window_s": service_cfg.imu_window_s,
                "max_sessions": service_cfg.max_sessions,
                "session": service_cfg.session.to_dict(),
            },
        },
    }


def _gateway_from_meta(
    meta: Dict[str, Any], pipeline_factory: PipelineFactory
) -> IngestionGateway:
    if not isinstance(meta, dict):
        raise DataQualityError("trace meta must be a JSON object")
    try:
        gw_cfg = GatewayConfig.from_dict(meta["gateway"])
        f = meta["fleet"]
        svc = f["service"]
        service_cfg = ServiceConfig(
            session=SessionConfig.from_dict(svc["session"]),
            imu_buffer=int(svc["imu_buffer"]),
            imu_window_s=float(svc["imu_window_s"]),
            max_sessions=int(svc["max_sessions"]),
        )
        max_total = f["max_total_sessions"]
        # Older headers also carry a key choosing the since-removed
        # sequential tick; both tick paths were bit-identical, so the key
        # is ignored.
        fleet_cfg = FleetConfig(
            n_shards=int(f["n_shards"]),
            service=service_cfg,
            max_total_sessions=(None if max_total is None
                                else int(max_total)),
            router_salt=str(f["router_salt"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataQualityError(
            f"trace meta does not describe a gateway topology: "
            f"{type(exc).__name__}: {exc}"
        )
    fleet = TrackingFleet(fleet_cfg, pipeline_factory=pipeline_factory)
    return IngestionGateway(gw_cfg, fleet)


class TraceWriter:
    """Appends chained records to a trace file; attach as a gateway tap.

    ``writer = TraceWriter(path, meta=trace_meta(gw)); gw.tap = writer``
    — every subsequent ``gw.tick`` appends one record. Each record is
    flushed as written (``durability="fsync"`` additionally fsyncs every
    record, so a committed tick survives an OS or power crash, not just a
    process crash), so a crash leaves a prefix that still verifies up to
    its last complete line — :func:`recover_trace` reads exactly that
    prefix back. Use as a context manager or call :meth:`close` to seal;
    the context exit seals **only on a clean exit**. When the body raised,
    the trace is left unsealed instead (:meth:`abort`), because an ``end``
    record under an in-flight exception would claim a completed run that
    never completed — the honest artifact of a crashed run is a
    crash-shaped trace.
    """

    def __init__(self, path: str, meta: Optional[Dict[str, Any]] = None,
                 durability: str = "flush"):
        if durability not in DURABILITY_POLICIES:
            raise ConfigurationError(
                f"durability must be one of {DURABILITY_POLICIES}, "
                f"got {durability!r}")
        self.path = str(path)
        self.durability = durability
        self.ticks = 0
        self._h = GENESIS
        self._closed = False
        try:
            self._fh: IO[str] = open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open trace {self.path!r} for writing: {exc}")
        self._write({
            "kind": "header",
            "format": TRACE_FORMAT,
            "meta": meta or {},
        })

    def _write(self, record: Dict[str, Any]) -> None:
        record = dict(record)
        record["h"] = self._h = _chain(self._h, record)
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":"), allow_nan=True)
                       + "\n")
        self._fh.flush()
        if self.durability == "fsync":
            os.fsync(self._fh.fileno())

    def record_tick(
        self,
        t: float,
        scans: Iterable[RssiSample],
        imu: Iterable[ImuSample],
        snapshots: Dict[str, SessionSnapshot],
    ) -> None:
        """Append one committed tick (the gateway calls this via its tap)."""
        if self._closed:
            raise ConfigurationError("trace writer is closed")
        self._write({
            "kind": "tick",
            "t": float(t),
            "scans": [[s.timestamp, s.rssi, s.beacon_id, s.channel]
                      for s in scans],
            "imu": [[s.timestamp, s.accel, s.gyro_z, s.mag_heading]
                    for s in imu],
            "snap": snapshot_digest(snapshots),
        })
        self.ticks += 1

    def close(self) -> None:
        """Seal the trace with an ``end`` record and close the file."""
        if self._closed:
            return
        self._write({"kind": "end", "ticks": self.ticks})
        self._closed = True
        self._fh.close()

    def abort(self) -> None:
        """Close the file *without* sealing (the crash-path close).

        The trace stays a valid unsealed prefix — readable via
        ``read_trace(path, allow_unsealed=True)`` — and honestly records
        that the run did not finish.
        """
        if self._closed:
            return
        self._closed = True
        self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        # Seal only a clean exit: masking an in-flight exception with an
        # `end` record would forge a completed run.
        if exc_type is None:
            self.close()
        else:
            self.abort()


@dataclass(frozen=True)
class TraceRecovery:
    """The structured report of reading a (possibly crash-ended) trace.

    ``sealed`` is True when the ``end`` record was present and consistent;
    ``torn_line``/``torn_reason`` name the single final line dropped as a
    crash-torn write (``None`` when every line verified). ``ticks_read``
    counts the verified tick records returned alongside this report.
    """

    sealed: bool
    ticks_read: int
    lines_total: int
    torn_line: Optional[int] = None
    torn_reason: Optional[str] = None

    @property
    def clean(self) -> bool:
        """Did the trace read with no recovery at all (sealed, no tear)?"""
        return self.sealed and self.torn_line is None


def _verify_line(
    path: str, lineno: int, line: str, prev_h: str
) -> Dict[str, Any]:
    """One line → verified record, or a typed refusal.

    Exactly the failures a crash-torn final write can produce (partial
    JSON, missing or mismatching hash) raise here — the tolerant reader
    forgives them on the last line only. Everything else is checked by
    the caller, where chain position is known.
    """
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise DataQualityError(
            f"trace {path!r} line {lineno} is not JSON: {exc}")
    if not isinstance(record, dict):
        raise DataQualityError(
            f"trace {path!r} line {lineno}: record must be an object")
    h = record.get("h")
    if not isinstance(h, str):
        raise DataQualityError(
            f"trace {path!r} line {lineno}: missing hash")
    if h != _chain(prev_h, record):
        raise DataQualityError(
            f"trace {path!r} line {lineno}: hash chain broken "
            f"(corruption, truncation-and-append, or reordering)")
    return record


def _read_verified(
    path: str, allow_unsealed: bool
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], TraceRecovery]:
    try:
        # errors="replace": a crash can tear a write mid-byte, leaving a
        # non-UTF-8 tail. Replacement characters can never survive the
        # per-line hash check, so nothing invalid is ever accepted — the
        # mangled line just fails verification like any other torn line.
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace {path!r}: {exc}")
    lines = [(lineno, line) for lineno, line in enumerate(raw, start=1)
             if line.strip()]
    prev_h = GENESIS
    header: Optional[Dict[str, Any]] = None
    ticks: List[Dict[str, Any]] = []
    ended = False
    torn_line: Optional[int] = None
    torn_reason: Optional[str] = None
    for index, (lineno, line) in enumerate(lines):
        if ended:
            raise DataQualityError(
                f"trace {path!r}: record after end (line {lineno})")
        try:
            record = _verify_line(path, lineno, line, prev_h)
        except DataQualityError as exc:
            if allow_unsealed and index == len(lines) - 1:
                # The one failure a crash legitimately produces: a torn
                # final write. Drop it, keep the verified prefix.
                torn_line, torn_reason = lineno, str(exc)
                break
            if index == len(lines) - 1:
                raise DataQualityError(
                    f"{exc} — if this trace ends in a crash-torn write, "
                    f"read_trace(..., allow_unsealed=True) recovers the "
                    f"verified prefix")
            raise
        prev_h = record["h"]
        kind = record.get("kind")
        if header is None:
            if kind != "header":
                raise DataQualityError(
                    f"trace {path!r}: first record must be the header, "
                    f"got {kind!r}")
            if record.get("format") != TRACE_FORMAT:
                raise DataQualityError(
                    f"trace {path!r}: unsupported format "
                    f"{record.get('format')!r} "
                    f"(this reader speaks {TRACE_FORMAT})")
            header = record
        elif kind == "tick":
            t = record.get("t")
            if not isinstance(t, (int, float)) or not math.isfinite(t):
                # Hash-valid but non-finite: not a torn write — tampering
                # or a writer bug. Refused in both modes.
                raise DataQualityError(
                    f"trace {path!r} line {lineno}: non-finite tick time")
            ticks.append(record)
        elif kind == "end":
            if record.get("ticks") != len(ticks):
                raise DataQualityError(
                    f"trace {path!r}: end record claims "
                    f"{record.get('ticks')!r} ticks, file has {len(ticks)}")
            ended = True
        else:
            raise DataQualityError(
                f"trace {path!r} line {lineno}: unknown record kind "
                f"{kind!r}")
    if header is None:
        raise DataQualityError(f"trace {path!r} is empty")
    if not ended and not allow_unsealed:
        raise DataQualityError(
            f"trace {path!r} is unsealed: no end record ({len(ticks)} "
            f"ticks read). An unsealed trace is the normal artifact of a "
            f"crashed run — pass allow_unsealed=True to read its verified "
            f"prefix")
    meta = header.get("meta")
    recovery = TraceRecovery(
        sealed=ended,
        ticks_read=len(ticks),
        lines_total=len(lines),
        torn_line=torn_line,
        torn_reason=torn_reason,
    )
    return (meta if isinstance(meta, dict) else {}), ticks, recovery


def read_trace(
    path: str, allow_unsealed: bool = False
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read and verify a trace; returns ``(meta, tick_records)``.

    Raises :class:`~repro.errors.DataQualityError` on any integrity
    failure: unparseable lines, a broken hash chain, a bad header, an
    ``end``/tick-count mismatch, or — under the strict default — a
    missing ``end`` seal. :class:`~repro.errors.ConfigurationError`
    covers an unreadable path — that is the caller's input, not the
    file's content.

    ``allow_unsealed=True`` accepts the trace a crashed process leaves
    behind: the ``end`` seal may be missing and **at most one** torn
    final line is dropped; the returned records are the hash-verified
    prefix. Corruption before the final line is refused in both modes.
    Use :func:`recover_trace` to also get the structured
    :class:`TraceRecovery` report of what recovery did.
    """
    meta, ticks, _ = _read_verified(path, allow_unsealed)
    return meta, ticks


def recover_trace(
    path: str,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], TraceRecovery]:
    """Read a possibly crash-ended trace; ``(meta, ticks, recovery)``.

    The tolerant twin of :func:`read_trace`: accepts a missing ``end``
    seal, drops at most one torn final line, and reports exactly what it
    forgave in the returned :class:`TraceRecovery`. Anything recovery
    cannot explain as a single torn tail write still raises
    :class:`~repro.errors.DataQualityError`.
    """
    return _read_verified(path, allow_unsealed=True)


@dataclass
class ReplayResult:
    """Outcome of re-driving trace ticks through a gateway+fleet."""

    #: Replayed snapshot digest per re-driven tick.
    digests: List[str] = field(default_factory=list)
    samples: int = 0
    imu_samples: int = 0
    #: ``(tick_index, t, recorded_digest, replayed_digest)`` per mismatch.
    mismatches: List[Mismatch] = field(default_factory=list)
    final_sessions: int = 0

    @property
    def ticks(self) -> int:
        """How many ticks were re-driven."""
        return len(self.digests)

    @property
    def identical(self) -> bool:
        """Did every tick reproduce its recorded snapshot digest?"""
        return not self.mismatches


def _redrive(
    gateway: IngestionGateway,
    tick_records: List[Dict[str, Any]],
    path: str,
    first: int = 0,
) -> ReplayResult:
    """Re-drive ``tick_records[first:]`` exactly as the original drain
    committed them, gated tick by tick on the recorded snapshot digests."""
    result = ReplayResult()
    records = tick_records[first:]
    for index, record in enumerate(records, start=first):
        try:
            scans = [RssiSample(float(t), float(rssi), str(beacon), int(ch))
                     for t, rssi, beacon, ch in record.get("scans", [])]
            imu = [ImuSample(float(t), float(a), float(g), float(m))
                   for t, a, g, m in record.get("imu", [])]
        except (TypeError, ValueError) as exc:
            raise DataQualityError(
                f"trace {path!r} tick {index}: malformed sample row: {exc}")
        gateway.enqueue_scans(scans)
        gateway.enqueue_imu(imu)
        result.digests.append(
            snapshot_digest(gateway.tick(float(record["t"]))))
        result.samples += len(scans)
        result.imu_samples += len(imu)
    result.mismatches = digest_mismatches(
        [str(r.get("snap")) for r in records], result.digests,
        [float(r["t"]) for r in records], first_index=first)
    result.final_sessions = gateway.fleet.total_sessions
    return result


def replay(
    path: str,
    pipeline_factory: PipelineFactory = default_pipeline_factory,
    allow_unsealed: bool = False,
) -> ReplayResult:
    """Re-drive a recorded trace through a fresh gateway→fleet.

    The topology is rebuilt from the trace header's recorded configs (a
    run recorded under a custom ``pipeline_factory`` must be replayed with
    the same one — the trace stores configuration, not code), then every
    tick is re-driven and digest-checked by :func:`_redrive`.
    ``allow_unsealed=True`` replays a crashed run's verified prefix (see
    :func:`recover_trace`).
    """
    meta, tick_records = read_trace(path, allow_unsealed=allow_unsealed)
    return _redrive(_gateway_from_meta(meta, pipeline_factory),
                    tick_records, path)
