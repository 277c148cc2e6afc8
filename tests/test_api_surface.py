"""Public-API surface and small remaining units: errors, exports."""


import numpy as np
import pytest

import repro
from repro.errors import (
    ConfigurationError,
    EstimationError,
    GeometryError,
    InsufficientDataError,
    NotFittedError,
    ReproError,
)
from repro.types import MotionSegment, Vec2


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, EstimationError, GeometryError,
        InsufficientDataError, NotFittedError,
    ])
    def test_all_derive_from_base(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_catching_base_at_api_boundary(self):
        from repro.core.estimator import EllipticalEstimator

        try:
            EllipticalEstimator().fit([0.0] * 3, [0.0] * 3, [0.0] * 3)
        except ReproError as exc:
            assert isinstance(exc, InsufficientDataError)
        else:  # pragma: no cover - defensive
            pytest.fail("expected a ReproError")


class TestMotionSegment:
    def test_duration(self):
        seg = MotionSegment(1.0, 3.5, Vec2(1.0, 0.0))
        assert seg.duration == pytest.approx(2.5)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.baselines
        import repro.ble
        import repro.channel
        import repro.core
        import repro.dtw
        import repro.filters
        import repro.imu
        import repro.ml
        import repro.motion
        import repro.sim
        import repro.world

        for module in (repro.analysis, repro.baselines, repro.ble,
                       repro.channel, repro.core, repro.dtw, repro.filters,
                       repro.imu, repro.ml, repro.motion, repro.sim,
                       repro.world):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (
                    f"{module.__name__}.{name}")

    def test_docstrings_on_public_classes(self):
        """Every re-exported public object documents itself."""
        import inspect

        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_quickstart_snippet_from_readme(self):
        """The README's quickstart must stay runnable."""
        rng = np.random.default_rng(1)
        sc = repro.scenario(1)
        sim = repro.Simulator(sc.floorplan, rng)
        walk = repro.l_shape(sc.observer_start, sc.observer_heading_rad)
        rec = sim.simulate(
            walk, [repro.BeaconSpec("b", position=sc.beacon_position)])
        est = repro.LocBLE().estimate(rec.rssi_traces["b"],
                                      rec.observer_imu.trace)
        assert est.error_to(rec.true_position_in_frame("b")) < 5.0

    def test_import_does_not_load_scipy_optimize(self):
        """The serving stack imports without scipy.optimize (~230 ms): the
        elliptical solver is NumPy-only and 3-D fits import it lazily."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, repro, repro.fleet, repro.gateway, "
                "repro.durability; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('scipy.optimize')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr[-800:]
        assert out.stdout.strip() == "[]", out.stdout[-800:]
