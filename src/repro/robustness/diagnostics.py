"""Diagnostics attached to degraded (low-confidence) location estimates.

When :meth:`LocBLE.estimate_robust <repro.core.pipeline.LocBLE.estimate_robust>`
cannot run the full elliptical regression — degenerate geometry, too few
samples after sanitization, a rank-deficient solve — it returns a fallback
estimate instead of raising. The :class:`EstimateDiagnostics` carried on
that estimate records *why* confidence is zero, so degradation-curve
experiments can tabulate failure modes instead of losing them to a bare
``except`` clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.provenance import FixProvenance
from repro.robustness.sanitize import SanitizationReport

__all__ = ["EstimateDiagnostics"]


@dataclass(frozen=True)
class EstimateDiagnostics:
    """Why and how an estimate was produced under degraded conditions.

    ``fallback`` is ``None`` when the full pipeline ran; otherwise a short
    tag naming the fallback path taken (``"range-only"`` when only a
    proximity-style range from the median RSS was possible, ``"no-data"``
    when nothing usable survived sanitization). ``failure`` carries the
    message of the pipeline error that forced the fallback.
    ``env_changes`` lists the timestamps of abrupt EnvAware environment
    changes that restarted the regression — streaming supervisors
    (:mod:`repro.service`) treat a fresh restart as a degraded-quality
    signal because the regression is warming up again.

    ``provenance`` is the :class:`repro.obs.FixProvenance` record the
    pipeline assembled for this estimate (solver facts included); streaming
    sessions enrich it with their stream-layer fields and send it with the
    ``service.fixes_accepted`` signal.

    ``warm`` is the :class:`repro.core.estimator.WarmStartState` the solver
    derived from this fit, with the observer's pose at the window's newest
    RSS time recorded (typed loosely to keep this module import-light):
    streaming callers carry it into the next overlapping-window solve to
    take the warm fast path.
    """

    sanitization: Optional[SanitizationReport] = None
    fallback: Optional[str] = None
    failure: Optional[str] = None
    n_samples_used: int = 0
    env_changes: Tuple[float, ...] = ()
    provenance: Optional[FixProvenance] = None
    warm: Optional[object] = None

    @property
    def full_pipeline(self) -> bool:
        """True when the regular estimation pipeline produced the result."""
        return self.fallback is None
