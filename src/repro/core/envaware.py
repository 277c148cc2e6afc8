"""EnvAware: environment recognition from RSS windows (Sec. 4.1).

A linear SVM over the standardized 9-value window features classifies each
1–2 s RSS window as LOS / P_LOS / NLOS. On top of the classifier,
:class:`EnvironmentMonitor` implements the paper's change policy: "LocBLE
keeps monitoring environmental changes, and starts a new regression model
only if new incoming data shows abrupt environmental changes" — a change is
declared only after ``hysteresis`` consecutive windows disagree with the
current class, so one noisy window cannot throw away a whole regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.features import feature_matrix, window_features
from repro.errors import ConfigurationError, NotFittedError
from repro.robustness.sanitize import check_trace
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import MultiClassSVM
from repro.types import EnvClass, RssiTrace

__all__ = ["EnvAwareClassifier", "EnvironmentMonitor", "trace_windows"]


def trace_windows(trace: RssiTrace, window_s: float = 2.0,
                  min_samples: int = 6) -> List[np.ndarray]:
    """Cut a trace into consecutive window value-arrays for classification.

    ``window_s`` must be a positive finite duration (a non-positive width
    would never advance the window cursor) and the trace must be clean —
    finite, time-sorted values (:func:`repro.robustness.check_trace`
    semantics). A zero-duration trace (a single sample, or coalesced
    duplicates) is one degenerate window: returned whole when it meets
    ``min_samples``, else no windows.
    """
    if not math.isfinite(window_s) or window_s <= 0:
        raise ConfigurationError("window_s must be positive and finite")
    if min_samples < 1:
        raise ConfigurationError("min_samples must be >= 1")
    if len(trace) == 0:
        return []
    check_trace(trace, context="trace_windows input")
    ts = trace.timestamps()
    vals = trace.values()
    if float(ts[-1]) <= float(ts[0]):
        return [vals.copy()] if len(vals) >= min_samples else []
    out: List[np.ndarray] = []
    t = float(ts[0])
    while t < float(ts[-1]):
        mask = (ts >= t) & (ts < t + window_s)
        if int(mask.sum()) >= min_samples:
            out.append(vals[mask].copy())
        t += window_s
    return out


@dataclass
class EnvAwareClassifier:
    """Feature extraction + scaling + linear SVM, packaged.

    ``classifier`` is pluggable (anything with fit/predict) so the paper's
    classifier comparison — SVM vs decision tree vs random forest — runs
    through one code path; the default is the linear SVM the paper chose.
    """

    classifier: object = field(default_factory=lambda: MultiClassSVM(epochs=60))
    scaler: StandardScaler = field(default_factory=StandardScaler)
    _fitted: bool = field(default=False, init=False)

    def fit(self, windows: List[Sequence[float]],
            labels: Sequence[str]) -> "EnvAwareClassifier":
        x = self.scaler.fit_transform(feature_matrix(windows))
        self.classifier.fit(x, np.asarray(labels))
        self._fitted = True
        return self

    def predict(self, windows: List[Sequence[float]]) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("EnvAwareClassifier.fit must be called first")
        x = self.scaler.transform(feature_matrix(windows))
        return self.classifier.predict(x)

    def predict_one(self, window: Sequence[float]) -> str:
        if not self._fitted:
            raise NotFittedError("EnvAwareClassifier.fit must be called first")
        x = self.scaler.transform(window_features(window)[None, :])
        return str(self.classifier.predict(x)[0])


@dataclass
class EnvironmentMonitor:
    """Streaming change detector over per-window classifications."""

    classifier: EnvAwareClassifier
    hysteresis: int = 2
    _current: Optional[str] = field(default=None, init=False)
    _pending: Optional[str] = field(default=None, init=False)
    _pending_count: int = field(default=0, init=False)

    @property
    def current(self) -> str:
        """The environment class currently in force (LOS until evidence)."""
        return self._current if self._current is not None else EnvClass.LOS

    def observe(self, window: Sequence[float]) -> bool:
        """Feed one window; returns True if an abrupt change is declared.

        A change needs ``hysteresis`` *consecutive* windows disagreeing with
        the current class — they need not agree with each other (a blocked
        link often flickers between P_LOS and NLOS while it degrades), and
        the new class is the most recent label.
        """
        label = self.classifier.predict_one(window)
        if self._current is None:
            self._current = label
            return False
        if label == self._current:
            self._pending = None
            self._pending_count = 0
            return False
        self._pending = label
        self._pending_count += 1
        if self._pending_count >= self.hysteresis:
            obs.signal("envaware.change", previous=str(self._current),
                       new=str(label))
            self._current = label
            self._pending = None
            self._pending_count = 0
            return True
        return False

    def reset(self) -> None:
        self._current = None
        self._pending = None
        self._pending_count = 0
