"""LB_Keogh lower-bounding for DTW (the paper's "lower bounding technique" [28]).

The clustering layer "creates a bounding envelope above and below each target
segment using the warping window", then sums the squared distances from the
parts of a candidate falling outside the envelope (Sec. 6.1). This bound
never exceeds the true DTW cost, so candidates whose bound already beats the
similarity threshold can be rejected without running DTW — the source of the
claimed ~100x speedup per test.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigurationError

__all__ = ["envelope", "lb_keogh"]


def envelope(target: Sequence[float], window: int) -> Tuple[np.ndarray, np.ndarray]:
    """Upper/lower running min-max envelope with half-width ``window``.

    A max/min over NumPy's sliding windows of the edge-padded target
    (the edge value stands in beyond either end): the whole point of
    LB_Keogh is to be orders of magnitude cheaper than the DTW it guards.
    """
    target = np.asarray(target, dtype=float)
    if target.ndim != 1 or target.size == 0:
        raise ConfigurationError("target must be a non-empty 1-D sequence")
    if window < 0:
        raise ConfigurationError("window must be non-negative")
    windows = sliding_window_view(np.pad(target, window, mode="edge"),
                                  2 * window + 1)
    return windows.max(axis=1), windows.min(axis=1)


def lb_keogh(
    candidate: Sequence[float], target: Sequence[float], window: int,
    squared: bool = True,
    env: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> float:
    """LB_Keogh bound of DTW(candidate, target) under a warping window.

    With ``squared=True`` (the paper's formulation) the bound is the squared
    sum of out-of-envelope excursions; with ``squared=False`` it is the L1
    analogue, which lower-bounds the absolute-difference DTW cost used by
    :func:`repro.dtw.dtw.dtw_distance`.

    ``env`` optionally supplies a precomputed ``(upper, lower)`` envelope of
    ``target`` at this ``window`` — the envelope depends only on the target,
    so callers testing many candidates against one target (the clustering
    layer) compute it once instead of once per candidate pair.
    """
    candidate = np.asarray(candidate, dtype=float)
    target = np.asarray(target, dtype=float)
    if candidate.shape != target.shape:
        raise ConfigurationError(
            "LB_Keogh requires equal-length sequences; interpolate first"
        )
    upper, lower = envelope(target, window) if env is None else env
    over = np.maximum(candidate - upper, 0.0)
    under = np.maximum(lower - candidate, 0.0)
    excursion = over + under
    if squared:
        return float(np.sum(excursion * excursion))
    return float(np.sum(excursion))
