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

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.gateway.client": [
        "ClientStats", "SimulatedClient", "apply_reorder"],
    "repro.gateway.frames": [
        "MAX_FRAME_BYTES", "PROTO_VERSION", "FrameDecoder", "encode_binary",
        "encode_for", "encode_frame", "imu_samples", "scan_samples",
        "validate_frame"],
    "repro.gateway.gateway": ["GatewayConfig", "IngestionGateway"],
    "repro.gateway.soak": [
        "GatewaySoakConfig", "GatewaySoakResult", "run_gateway_soak"],
    "repro.gateway.trace": [
        "TRACE_FORMAT", "ReplayResult", "TraceRecovery", "TraceWriter",
        "read_trace", "recover_trace", "replay", "snapshot_digest",
        "trace_meta"],
    "repro.gateway.transport": [
        "ConnectionClosed", "Endpoint", "connected_pair"],
})
