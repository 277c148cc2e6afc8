"""Per-fix provenance: the auditable record behind every location fix.

Deployed beacon systems live or die by being able to audit per-fix
provenance across thousands of device-hours — when a track drifts, the
first question is *which* fixes fed it and *what state* the pipeline was in
when it produced them. :class:`FixProvenance` is that record, assembled in
layers as a solve travels up the stack:

* :class:`~repro.core.estimator.EllipticalEstimator` contributes the solver
  facts: which solver ran, how many initial candidates it refined, the
  covariance conditioning and whether the position std fell back to the cap;
* :class:`~repro.core.pipeline.LocBLE` contributes the pipeline facts:
  environment class and restarts, sample counts, sanitization repairs,
  confidence, fallback path (if any);
* :class:`~repro.service.session.TrackingSession` contributes the stream
  facts: beacon id, stream time, buffer depth and shed counts, health state
  — and sends the completed record as the fields of its one
  ``service.fixes_accepted`` signal.

The record is JSON-safe by construction (:meth:`to_fields`), so it lands in
the event log verbatim.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["FixProvenance"]


@dataclass(frozen=True)
class FixProvenance:
    """Everything worth auditing about how one location fix was produced."""

    # -- solver layer (core/estimator.py) ------------------------------------
    solver: str = "none"            # "gauss-newton" | "warm-start" | "linearized" | "fallback"
    n_candidates: int = 0           # initial seeds refined by the solver
    cov_cond: Optional[float] = None   # condition number of the GN normal matrix
    cov_status: str = "none"        # "ok" | "capped" | "rank-deficient" | "error"
    warm_started: bool = False      # fit came from the warm-start fast path

    # -- pipeline layer (core/pipeline.py) -----------------------------------
    env_class: str = "LOS"
    env_restarts: int = 0           # EnvAware regression restarts in this solve
    n_samples: int = 0              # matched samples fed to the regression
    sanitized_dropped: int = 0      # samples the sanitizer removed
    sanitized_repaired: bool = False  # trace needed any repair at all
    confidence: float = 0.0
    position_std: Optional[float] = None
    fallback: Optional[str] = None  # "range-only" | "no-data" | None

    # -- stream layer (service/session.py) -----------------------------------
    beacon_id: Optional[str] = None
    stream_t: Optional[float] = None
    buffered: Optional[int] = None  # RSS buffer depth at solve time
    shed: Optional[int] = None      # cumulative samples shed by that buffer
    degraded: Optional[bool] = None  # session judged the fix degraded

    @property
    def cov_fallback(self) -> bool:
        """True when the solver could not produce a trustworthy covariance."""
        return self.cov_status in ("capped", "rank-deficient", "error")

    def with_stream(
        self,
        beacon_id: str,
        stream_t: float,
        buffered: int,
        shed: int,
        degraded: bool,
    ) -> "FixProvenance":
        """The same record enriched with the session's stream-layer facts."""
        return dataclasses.replace(
            self,
            beacon_id=beacon_id,
            stream_t=stream_t,
            buffered=buffered,
            shed=shed,
            degraded=degraded,
        )

    def to_fields(self) -> Dict[str, Any]:
        """Flat JSON-safe fields for one event record (Nones omitted)."""
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            out[f.name] = value
        out["cov_fallback"] = self.cov_fallback
        return out
