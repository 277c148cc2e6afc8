"""Particle-filter location estimator — the sequential baseline.

The batch elliptical regression refits everything on each update; a
sequential Monte Carlo estimator instead carries a particle cloud over the
beacon's position (and per-particle path-loss parameters) and assimilates
each (displacement, RSS) reading as it arrives. It is a comparator, like
the fingerprinting and DARTLE baselines, not a serving path: the Table-1
bench measured it at a 3.89 m median against the regression's 2.53 m
(EXPERIMENTS.md). What it offers the comparison is an online API
(`update` per reading, `estimate` any time) and a posterior whose spread is
a direct uncertainty readout (no Jacobian approximation).

Robustness contract (matching :mod:`repro.robustness` conventions): every
reading is screened per sample before it can touch the cloud. In
``sanitize="strict"`` mode a non-finite or implausible reading raises a
typed :class:`~repro.errors.DataQualityError`; in ``"repair"`` mode it is
skipped and counted. Either way the posterior built from the readings that
*did* pass is never discarded — the historical failure mode this module is
hardened against was one junk reading driving ``update`` into the
degenerate-weight branch, which silently re-seeded the whole cloud **and**
zeroed the update counter, so a later ``estimate()`` raised "no readings
assimilated yet" after hundreds of successful updates. That branch now
keeps the pre-update posterior, drops only the offending reading, and is
loud: a ``solver.particle_degenerate`` signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, DataQualityError, EstimationError
from repro.robustness.sanitize import RSSI_PLAUSIBLE_DBM
from repro.types import LocationEstimate, Vec2

__all__ = ["ParticleEstimator"]


@dataclass
class ParticleEstimator:
    """SIR particle filter over (x, h, Γ, n).

    Particles are seeded uniformly over a disk of radius ``max_range_m``
    with path-loss parameters drawn from the same priors the batch
    estimator uses (Γ around the advertised power, n over the indoor band).
    Each ``update(p, q, rss)`` reweights by the Gaussian RSS likelihood and
    resamples when the effective sample size collapses; a small parameter
    jitter at resampling keeps the cloud alive (regularised PF).

    ``sanitize`` selects the per-sample screening policy: ``"strict"``
    (default) raises a typed :class:`~repro.errors.DataQualityError` on a
    non-finite displacement or a non-finite/implausible RSS reading;
    ``"repair"`` skips the reading, counts it, and keeps going — the right
    mode for dirty field streams.
    """

    rng: np.random.Generator
    n_particles: int = 1500
    max_range_m: float = 16.0
    rss_sigma_db: float = 3.5
    gamma_prior: float = -59.0
    gamma_prior_sigma: float = 6.0
    n_low: float = 1.6
    n_high: float = 3.2
    resample_threshold: float = 0.5
    sanitize: str = "strict"
    _state: Optional[np.ndarray] = field(default=None, init=False)
    _weights: Optional[np.ndarray] = field(default=None, init=False)
    _n_updates: int = field(default=0, init=False)
    _n_skipped: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.n_particles < 50:
            raise ConfigurationError("need >= 50 particles")
        if self.rss_sigma_db <= 0 or self.max_range_m <= 0:
            raise ConfigurationError("invalid noise/range parameters")
        if self.sanitize not in ("strict", "repair"):
            raise ConfigurationError(
                f"sanitize must be 'strict' or 'repair', got {self.sanitize!r}"
            )
        self.reset()

    def reset(self) -> None:
        """Re-seed the cloud from the prior, discarding the posterior.

        A *deliberate* operation (new measurement session, environment
        change): it zeroes the update counter, so ``estimate()`` refuses
        until fresh readings arrive. ``update`` never calls it — an
        assimilation problem must not wipe history (see module docstring).
        Resets of a live posterior are evented and counted.
        """
        if self._state is not None:
            obs.signal("solver.particle_resets", severity="warning",
                       n_updates_discarded=self._n_updates)
        n = self.n_particles
        radius = self.max_range_m * np.sqrt(self.rng.uniform(0.05, 1.0, n))
        angle = self.rng.uniform(-math.pi, math.pi, n)
        x = radius * np.cos(angle)
        h = radius * np.sin(angle)
        gamma = self.rng.normal(self.gamma_prior, self.gamma_prior_sigma, n)
        n_exp = self.rng.uniform(self.n_low, self.n_high, n)
        self._state = np.column_stack([x, h, gamma, n_exp])
        self._weights = np.full(n, 1.0 / n)
        self._n_updates = 0

    @property
    def effective_sample_size(self) -> float:
        return float(1.0 / np.sum(self._weights**2))

    @property
    def n_updates(self) -> int:
        """Readings assimilated into the current posterior."""
        return self._n_updates

    @property
    def n_skipped(self) -> int:
        """Readings screened out (repair mode) since construction."""
        return self._n_skipped

    # -- screening -----------------------------------------------------------

    def _screen(self, p: float, q: float, rss: float) -> bool:
        """Per-sample input screening: True when the reading is usable.

        Strict mode raises typed; repair mode counts, events and skips.
        Displacements must be finite; RSS must additionally sit inside the
        physically plausible band — a finite but absurd reading (say,
        ``-1e154`` dBm) would overflow the squared innovation and poison
        every particle's log-likelihood at once.
        """
        lo, hi = RSSI_PLAUSIBLE_DBM
        if math.isfinite(p) and math.isfinite(q) and lo <= rss <= hi:
            return True
        if self.sanitize == "strict":
            raise DataQualityError(
                f"unusable particle reading (p={p!r}, q={q!r}, rss={rss!r}); "
                "sanitize the trace first or construct with sanitize='repair'"
            )
        self._skip(reason="unusable-reading")
        return False

    def _skip(self, reason: str) -> None:
        self._n_skipped += 1
        obs.signal("solver.particle_skipped", severity="debug", reason=reason)

    # -- assimilation --------------------------------------------------------

    def update(self, p: float, q: float, rss: float) -> bool:
        """Assimilate one reading (same (p, q) convention as the batch fit).

        Returns True when the reading entered the posterior, False when it
        was screened out or rejected by the degenerate-weight guard. The
        posterior surviving before the call is never destroyed by a bad
        reading on either path.
        """
        if not self._screen(float(p), float(q), float(rss)):
            return False
        s = self._state
        # The degenerate-weight guard below owns any NaN/overflow these
        # vector ops can produce, so numpy's warnings are noise here.
        with np.errstate(invalid="ignore", over="ignore"):
            l = np.maximum(np.hypot(s[:, 0] + p, s[:, 1] + q), 0.1)
            predicted = s[:, 2] - 10.0 * s[:, 3] * np.log10(l)
            log_lik = -0.5 * ((rss - predicted) / self.rss_sigma_db) ** 2
            log_w = np.log(self._weights + 1e-300) + log_lik
            log_w -= log_w.max()
            w = np.exp(log_w)
            total = w.sum()
        if not math.isfinite(total) or total <= 0:
            # Defensive guard: with screening in place this is nearly
            # unreachable, but if the weights do collapse the pre-update
            # posterior is kept and only this reading is dropped — the old
            # behaviour (silent reset + zeroed update counter, making a
            # later estimate() raise after hundreds of good updates) is the
            # bug this module's robustness contract forbids.
            obs.signal("solver.particle_degenerate", severity="warning",
                       rss=float(rss), n_updates=self._n_updates,
                       weight_total=float(total))
            return False
        self._weights = w / total
        self._n_updates += 1
        if self.effective_sample_size < self.resample_threshold * self.n_particles:
            self._resample()
        return True

    def update_batch(self, ps, qs, rss_values) -> int:
        """Assimilate a batch of readings; returns how many were taken.

        Non-numeric entries are part of the data-error contract like every
        other public entry point: strict mode raises a typed
        :class:`~repro.errors.DataQualityError` (never a bare ``TypeError``
        from ``float()``), repair mode skips and counts them.
        """
        taken = 0
        for p, q, r in zip(ps, qs, rss_values):
            try:
                p_f, q_f, r_f = float(p), float(q), float(r)
            except (TypeError, ValueError) as exc:
                if self.sanitize == "strict":
                    raise DataQualityError(
                        f"non-numeric particle reading "
                        f"(p={p!r}, q={q!r}, rss={r!r})"
                    ) from exc
                self._skip(reason="non-numeric")
                continue
            taken += int(self.update(p_f, q_f, r_f))
        return taken

    def _resample(self) -> None:
        n = self.n_particles
        obs.signal("solver.particle_resamples", severity="debug",
                   ess=self.effective_sample_size)
        # Systematic resampling.
        positions = (self.rng.random() + np.arange(n)) / n
        cumulative = np.cumsum(self._weights)
        cumulative[-1] = 1.0
        idx = np.searchsorted(cumulative, positions)
        self._state = self._state[idx]
        # Regularisation jitter, scaled to the cloud's current spread.
        spread = np.maximum(self._state.std(axis=0), 1e-3)
        jitter = self.rng.normal(0.0, 0.1, self._state.shape) * spread
        self._state = self._state + jitter
        self._state[:, 3] = np.clip(self._state[:, 3], 1.0, 5.0)
        self._state[:, 2] = np.clip(self._state[:, 2], -95.0, -25.0)
        self._weights = np.full(n, 1.0 / n)

    def estimate(self) -> LocationEstimate:
        """The posterior-mean estimate with its spread as position_std."""
        if self._n_updates < 1:
            raise EstimationError("no readings assimilated yet")
        mean = np.average(self._state, axis=0, weights=self._weights)
        var_xy = np.average(
            (self._state[:, :2] - mean[:2]) ** 2, axis=0,
            weights=self._weights,
        )
        std = float(np.sqrt(var_xy.sum()))
        # Confidence: how concentrated the posterior is relative to the
        # prior disk.
        confidence = float(np.clip(1.0 - std / self.max_range_m, 0.0, 1.0))
        return LocationEstimate(
            position=Vec2(float(mean[0]), float(mean[1])),
            confidence=confidence,
            gamma=float(mean[2]),
            n=float(mean[3]),
            position_std=std,
            diagnostics=self._diagnostics(std, confidence),
        )

    def _diagnostics(self, std: float, confidence: float):
        """Posterior-spread-derived diagnostics for the estimate.

        Imported lazily so this module keeps its light dependency set (the
        diagnostics module pulls in the sanitization layer).
        """
        from repro.obs.provenance import FixProvenance
        from repro.robustness.diagnostics import EstimateDiagnostics

        return EstimateDiagnostics(
            n_samples_used=self._n_updates,
            provenance=FixProvenance(
                solver="particle",
                n_candidates=self.n_particles,
                cov_status="ok" if math.isfinite(std) else "error",
                n_samples=self._n_updates,
                sanitized_dropped=self._n_skipped,
                sanitized_repaired=self._n_skipped > 0,
                confidence=confidence,
                position_std=std if math.isfinite(std) else None,
            ),
        )
