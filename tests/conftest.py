"""Shared fixtures: deterministic RNGs, an expensive-to-train EnvAware and
a recording event sink."""

from __future__ import annotations

from typing import Iterator

import numpy as np
import pytest

from repro.core.envaware import EnvAwareClassifier
from repro.sim.datasets import EnvDatasetBuilder
from tests.stubs import RecordingSink, recording


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def trained_envaware() -> EnvAwareClassifier:
    """A small but functional EnvAware classifier, trained once per session."""
    builder = EnvDatasetBuilder(np.random.default_rng(99))
    windows, labels = builder.build(sessions_per_class=6)
    return EnvAwareClassifier().fit(windows, labels)


@pytest.fixture
def recorded() -> Iterator[RecordingSink]:
    """Every event emitted while the test runs."""
    with recording() as sink:
        yield sink
