"""2-D geometric primitives for floorplans and signal-path analysis.

The channel simulator needs exactly two geometric queries: "does the segment
from the beacon to the observer cross this wall?" (LOS classification) and
"how far apart are they?". Everything here serves those queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import GeometryError
from repro.types import Vec2

__all__ = ["Segment", "segments_intersect", "point_segment_distance"]

_EPS = 1e-12


@dataclass(frozen=True)
class Segment:
    """A line segment between two points."""

    a: Vec2
    b: Vec2

    def __post_init__(self) -> None:
        if self.a.distance_to(self.b) < _EPS:
            raise GeometryError(f"degenerate segment at {self.a}")

    @property
    def length(self) -> float:
        return self.a.distance_to(self.b)

    def direction(self) -> Vec2:
        return (self.b - self.a).normalized()

    def midpoint(self) -> Vec2:
        return Vec2((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)

    def point_at(self, t: float) -> Vec2:
        """Point at parameter ``t`` in [0, 1] along the segment."""
        return self.a + (self.b - self.a) * t

    def intersects(self, other: "Segment") -> bool:
        return segments_intersect(self.a, self.b, other.a, other.b)

    def intersection(self, other: "Segment") -> Optional[Vec2]:
        """Intersection point with ``other``, or None if they do not cross.

        Collinear overlapping segments return the midpoint of the overlap of
        the endpoints projected on the shared line — sufficient for wall
        crossing queries, which never depend on collinear geometry.
        """
        r = self.b - self.a
        s = other.b - other.a
        denom = r.cross(s)
        qp = other.a - self.a
        if abs(denom) < _EPS:
            if abs(qp.cross(r)) > _EPS:
                return None  # parallel, non-collinear
            # Collinear: project other's endpoints onto this segment.
            rr = r.dot(r)
            t0 = qp.dot(r) / rr
            t1 = (other.b - self.a).dot(r) / rr
            lo, hi = min(t0, t1), max(t0, t1)
            lo, hi = max(lo, 0.0), min(hi, 1.0)
            if lo > hi:
                return None
            return self.point_at((lo + hi) / 2.0)
        t = qp.cross(s) / denom
        u = qp.cross(r) / denom
        if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
            return self.point_at(min(max(t, 0.0), 1.0))
        return None

    def distance_to_point(self, p: Vec2) -> float:
        return point_segment_distance(p, self.a, self.b)


def segments_intersect(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> bool:
    """True if segment p1-p2 intersects segment q1-q2 (touching counts)."""

    def orient(a: Vec2, b: Vec2, c: Vec2) -> int:
        v = (b - a).cross(c - a)
        if v > _EPS:
            return 1
        if v < -_EPS:
            return -1
        return 0

    def on_segment(a: Vec2, b: Vec2, c: Vec2) -> bool:
        return (
            min(a.x, b.x) - _EPS <= c.x <= max(a.x, b.x) + _EPS
            and min(a.y, b.y) - _EPS <= c.y <= max(a.y, b.y) + _EPS
        )

    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)

    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(p1, p2, q1):
        return True
    if o2 == 0 and on_segment(p1, p2, q2):
        return True
    if o3 == 0 and on_segment(q1, q2, p1):
        return True
    if o4 == 0 and on_segment(q1, q2, p2):
        return True
    return False


def point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    """Shortest distance from point ``p`` to segment ``a``-``b``."""
    ab = b - a
    denom = ab.dot(ab)
    if denom < _EPS:
        # Degenerate (or sub-epsilon) segment: nearest of the endpoints.
        return min(p.distance_to(a), p.distance_to(b))
    t = (p - a).dot(ab) / denom
    t = min(max(t, 0.0), 1.0)
    return p.distance_to(a + ab * t)

