"""Exception hierarchy for the LocBLE reproduction.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid or inconsistent parameters."""


class DataQualityError(ConfigurationError):
    """Measurement data is malformed or degraded beyond use.

    Distinguishes *data pathologies* (NaN RSS from a flaky scanner, unsorted
    or duplicate timestamps, zero-duration traces) from *caller bugs*
    (:class:`ConfigurationError` proper: bad parameters, mismatched array
    shapes). It derives from :class:`ConfigurationError` so existing callers
    that catch the broader class keep working; new code should catch this
    class to handle dirty field logs specifically — typically by routing the
    trace through :func:`repro.robustness.sanitize_trace` and retrying.
    """


class InsufficientDataError(ReproError):
    """An algorithm received too few samples to produce a meaningful result.

    The paper requires ~80 % of a 3.5-5 m L-shaped walk (Sec. 7.6.2); below
    that the regression is under-determined and we refuse to guess.
    """


class EstimationError(ReproError):
    """Location estimation failed to converge or produced no valid solution."""


class DegenerateGeometryError(EstimationError):
    """The measurement geometry cannot constrain the estimate.

    Raised when every candidate regression is rank-deficient or no
    path-loss exponent yields a valid solve — typically a standstill walk,
    a perfectly collinear trace, or RSS with no distance structure. Derives
    from :class:`EstimationError` so existing handlers keep working;
    :meth:`repro.core.pipeline.LocBLE.estimate_robust` converts it into a
    zero-confidence fallback estimate instead of propagating it.
    """


class NotFittedError(ReproError):
    """A learning component was used before :meth:`fit` was called."""


class GeometryError(ReproError):
    """A geometric primitive was given degenerate input."""
