"""``repro.gateway`` — the async ingestion edge in front of the fleet.

Layout:

* :mod:`~repro.gateway.frames` — the length-prefixed wire protocol (JSON
  control frames; binary data frames, acks and held envelopes) and its
  incremental, typed-error decoder.
* :mod:`~repro.gateway.transport` — in-memory flow-controlled duplex
  byte pipes (the deterministic stand-in for sockets).
* :mod:`~repro.gateway.gateway` — :class:`IngestionGateway`: concurrent
  client serving, layered admission, bounded queues, deterministic tick.
* :mod:`~repro.gateway.trace` — durable hash-chained record/replay.
* :mod:`~repro.gateway.client` — a protocol-complete simulated client
  that acts out scripted transport faults.
* :mod:`~repro.gateway.soak` — the hostile-matrix soak harness with the
  parity and replay acceptance gates.
"""

from repro.gateway.client import ClientStats, SimulatedClient, apply_reorder
from repro.gateway.frames import (
    MAX_FRAME_BYTES,
    PROTO_VERSION,
    FrameDecoder,
    encode_binary,
    encode_for,
    encode_frame,
    imu_samples,
    scan_samples,
    validate_frame,
)
from repro.gateway.gateway import GatewayConfig, IngestionGateway
from repro.gateway.soak import (
    GatewaySoakConfig,
    GatewaySoakResult,
    run_gateway_soak,
)
from repro.gateway.trace import (
    TRACE_FORMAT,
    ReplayResult,
    TraceRecovery,
    TraceWriter,
    read_trace,
    recover_trace,
    replay,
    snapshot_digest,
    trace_meta,
)
from repro.gateway.transport import ConnectionClosed, Endpoint, connected_pair

__all__ = [
    "PROTO_VERSION",
    "MAX_FRAME_BYTES",
    "TRACE_FORMAT",
    "FrameDecoder",
    "encode_frame",
    "encode_binary",
    "encode_for",
    "validate_frame",
    "scan_samples",
    "imu_samples",
    "ConnectionClosed",
    "Endpoint",
    "connected_pair",
    "GatewayConfig",
    "IngestionGateway",
    "TraceRecovery",
    "TraceWriter",
    "read_trace",
    "recover_trace",
    "replay",
    "ReplayResult",
    "snapshot_digest",
    "trace_meta",
    "ClientStats",
    "SimulatedClient",
    "apply_reorder",
    "GatewaySoakConfig",
    "GatewaySoakResult",
    "run_gateway_soak",
]
