"""Tests for the shared value types."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.types import (
    EnvClass,
    ImuSample,
    ImuTrace,
    LocationEstimate,
    RssiSample,
    RssiTrace,
    Vec2,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestVec2:
    def test_arithmetic(self):
        a, b = Vec2(1, 2), Vec2(3, -1)
        assert a + b == Vec2(4, 1)
        assert a - b == Vec2(-2, 3)
        assert a * 2 == Vec2(2, 4)
        assert 2 * a == Vec2(2, 4)
        assert -a == Vec2(-1, -2)

    def test_dot_cross(self):
        assert Vec2(1, 0).dot(Vec2(0, 1)) == 0.0
        assert Vec2(1, 0).cross(Vec2(0, 1)) == 1.0
        assert Vec2(0, 1).cross(Vec2(1, 0)) == -1.0

    def test_norm_and_distance(self):
        assert Vec2(3, 4).norm() == 5.0
        assert Vec2(0, 0).distance_to(Vec2(3, 4)) == 5.0

    def test_normalized(self):
        v = Vec2(3, 4).normalized()
        assert math.isclose(v.norm(), 1.0)
        with pytest.raises(ValueError):
            Vec2(0, 0).normalized()

    def test_rotation_quarter_turn(self):
        v = Vec2(1, 0).rotated(math.pi / 2)
        assert math.isclose(v.x, 0.0, abs_tol=1e-12)
        assert math.isclose(v.y, 1.0)

    def test_heading(self):
        assert math.isclose(Vec2(0, 1).heading(), math.pi / 2)
        assert math.isclose(Vec2(-1, 0).heading(), math.pi)

    def test_polar_roundtrip(self):
        v = Vec2.from_polar(2.0, math.pi / 3)
        assert math.isclose(v.norm(), 2.0)
        assert math.isclose(v.heading(), math.pi / 3)

    def test_array_roundtrip(self):
        v = Vec2(1.5, -2.5)
        assert Vec2.from_array(v.as_array()) == v

    @given(finite, finite, st.floats(min_value=-10, max_value=10,
                                     allow_nan=False))
    def test_rotation_preserves_norm(self, x, y, angle):
        v = Vec2(x, y)
        assert math.isclose(v.rotated(angle).norm(), v.norm(),
                            rel_tol=1e-9, abs_tol=1e-6)

    @given(finite, finite, finite, finite)
    def test_triangle_inequality(self, x1, y1, x2, y2):
        a, b = Vec2(x1, y1), Vec2(x2, y2)
        assert (a + b).norm() <= a.norm() + b.norm() + 1e-6


class TestRssiTrace:
    def _trace(self, n=10, dt=0.1):
        return RssiTrace.from_arrays(
            [i * dt for i in range(n)], [-60.0 - i for i in range(n)]
        )

    def test_from_arrays_and_accessors(self):
        t = self._trace()
        assert len(t) == 10
        assert t.beacon_id == "beacon-0"
        assert t.values()[0] == -60.0
        assert t.timestamps()[-1] == pytest.approx(0.9)

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(ValueError):
            RssiTrace.from_arrays([0.0, 1.0], [-60.0])

    def test_duration_and_rate(self):
        t = self._trace(n=10, dt=0.1)
        assert t.duration() == pytest.approx(0.9)
        assert t.mean_rate_hz() == pytest.approx(10.0)

    def test_empty_trace_behaviour(self):
        t = RssiTrace()
        assert len(t) == 0
        assert t.duration() == 0.0
        assert t.mean_rate_hz() == 0.0
        with pytest.raises(ValueError):
            _ = t.beacon_id

    def test_slice_time(self):
        t = self._trace()
        s = t.slice_time(0.25, 0.65)
        assert len(s) == 4
        assert s.timestamps()[0] == pytest.approx(0.3)

    def test_truncated_fraction(self):
        t = self._trace()
        assert len(t.truncated_fraction(0.5)) == 5
        assert len(t.truncated_fraction(1.0)) == 10
        assert len(t.truncated_fraction(0.01)) == 1
        with pytest.raises(ValueError):
            t.truncated_fraction(0.0)
        with pytest.raises(ValueError):
            t.truncated_fraction(1.2)

    def test_iteration_yields_samples(self):
        t = self._trace(3)
        assert all(isinstance(s, RssiSample) for s in t)

    def test_sanitized_clean_trace_hands_its_arrays_on(self):
        from repro.robustness import sanitize_trace

        clean, _ = sanitize_trace(self._trace(3))
        ts, vals = clean.timestamps(), clean.values()
        assert ts is clean.timestamps() and vals is clean.values()
        assert not ts.flags.writeable and not vals.flags.writeable
        assert vals.tolist() == [-60.0, -61.0, -62.0]
        assert clean == self._trace(3)  # the arrays take no part
        # Samples that no longer match the arrays' length get fresh ones.
        clean.samples.append(RssiSample(0.3, -63.0))
        assert clean.values().tolist() == [-60.0, -61.0, -62.0, -63.0]


class TestImuTrace:
    def test_accessors(self):
        t = ImuTrace(
            [ImuSample(0.1 * i, 0.2, 0.01, 1.0) for i in range(20)]
        )
        assert len(t) == 20
        assert t.accel().shape == (20,)
        assert t.gyro_z()[0] == pytest.approx(0.01)
        assert t.mag_heading()[5] == pytest.approx(1.0)
        assert t.rate_hz() == pytest.approx(10.0)

    def test_rate_of_short_trace(self):
        assert ImuTrace([]).rate_hz() == 0.0
        assert ImuTrace([ImuSample(0, 0, 0, 0)]).rate_hz() == 0.0


class TestLocationEstimate:
    def test_distance_and_error(self):
        e = LocationEstimate(position=Vec2(3, 4))
        assert e.distance() == 5.0
        assert e.error_to(Vec2(3, 0)) == 4.0

    def test_defaults(self):
        e = LocationEstimate(position=Vec2(0, 0))
        assert e.confidence == 1.0
        assert e.environment == EnvClass.LOS
        assert e.ambiguous == ()


def test_env_classes_are_distinct():
    assert len(set(EnvClass.ALL)) == 3
