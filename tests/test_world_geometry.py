"""Tests for geometric primitives."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.types import Vec2, wrap_angle
from repro.world.geometry import (
    Segment,
    point_segment_distance,
    segments_intersect,
)

coords = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestSegment:
    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            Segment(Vec2(1, 1), Vec2(1, 1))

    def test_length_and_midpoint(self):
        s = Segment(Vec2(0, 0), Vec2(3, 4))
        assert s.length == 5.0
        assert s.midpoint() == Vec2(1.5, 2.0)

    def test_point_at(self):
        s = Segment(Vec2(0, 0), Vec2(2, 0))
        assert s.point_at(0.5) == Vec2(1.0, 0.0)

    def test_crossing_segments_intersect(self):
        a = Segment(Vec2(0, 0), Vec2(2, 2))
        b = Segment(Vec2(0, 2), Vec2(2, 0))
        assert a.intersects(b)
        p = a.intersection(b)
        assert p.distance_to(Vec2(1, 1)) < 1e-9

    def test_parallel_segments_do_not_intersect(self):
        a = Segment(Vec2(0, 0), Vec2(2, 0))
        b = Segment(Vec2(0, 1), Vec2(2, 1))
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_collinear_overlapping(self):
        a = Segment(Vec2(0, 0), Vec2(4, 0))
        b = Segment(Vec2(2, 0), Vec2(6, 0))
        assert a.intersects(b)
        p = a.intersection(b)
        assert p is not None and abs(p.y) < 1e-9 and 2 <= p.x <= 4

    def test_collinear_disjoint(self):
        a = Segment(Vec2(0, 0), Vec2(1, 0))
        b = Segment(Vec2(2, 0), Vec2(3, 0))
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_touching_at_endpoint(self):
        a = Segment(Vec2(0, 0), Vec2(1, 1))
        b = Segment(Vec2(1, 1), Vec2(2, 0))
        assert a.intersects(b)

    def test_distance_to_point(self):
        s = Segment(Vec2(0, 0), Vec2(2, 0))
        assert s.distance_to_point(Vec2(1, 1)) == pytest.approx(1.0)
        assert s.distance_to_point(Vec2(-1, 0)) == pytest.approx(1.0)
        assert s.distance_to_point(Vec2(3, 0)) == pytest.approx(1.0)


class TestSegmentsIntersect:
    def test_t_junction(self):
        assert segments_intersect(
            Vec2(0, 0), Vec2(2, 0), Vec2(1, -1), Vec2(1, 0)
        )

    def test_near_miss(self):
        assert not segments_intersect(
            Vec2(0, 0), Vec2(2, 0), Vec2(1, 0.01), Vec2(1, 1)
        )

    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    def test_symmetry(self, ax, ay, bx, by, cx, cy, dx, dy):
        p1, p2 = Vec2(ax, ay), Vec2(bx, by)
        q1, q2 = Vec2(cx, cy), Vec2(dx, dy)
        assert segments_intersect(p1, p2, q1, q2) == segments_intersect(
            q1, q2, p1, p2
        )


class TestPointSegmentDistance:
    def test_degenerate_segment_falls_back_to_point(self):
        assert point_segment_distance(
            Vec2(1, 1), Vec2(0, 0), Vec2(0, 0)
        ) == pytest.approx(math.sqrt(2))

    @given(coords, coords, coords, coords, coords, coords)
    def test_never_exceeds_endpoint_distance(self, px, py, ax, ay, bx, by):
        p, a, b = Vec2(px, py), Vec2(ax, ay), Vec2(bx, by)
        d = point_segment_distance(p, a, b)
        assert d <= p.distance_to(a) + 1e-9
        assert d <= p.distance_to(b) + 1e-9


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi / 2, -math.pi / 2),
            (2 * math.pi, 0.0),
            (-7 * math.pi, math.pi),
        ],
    )
    def test_known_values(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=-1000, max_value=1000, allow_nan=False))
    def test_range_and_equivalence(self, angle):
        w = wrap_angle(angle)
        assert -math.pi < w <= math.pi + 1e-12
        assert math.isclose(math.cos(w), math.cos(angle), abs_tol=1e-6)
        assert math.isclose(math.sin(w), math.sin(angle), abs_tol=1e-6)
