"""Sequence-matching substrate: DTW, LB_Keogh, segment voting."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dtw.dtw": ["DtwResult", "dtw_distance", "dtw_full"],
    "repro.dtw.lowerbound": ["envelope", "lb_keogh"],
    "repro.dtw.segmatch": ["MatchResult", "SegmentMatcher"],
})
