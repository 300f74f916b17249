import math

import numpy as np
import pytest

from edgewalk.errors import (
    CoincidentCentersError,
    InputError,
    NoForwardCandidateError,
)
from edgewalk.geometry import (
    Domain,
    Point2,
    circle_circle_intersection,
    distance,
    midpoint,
    perimeter_circle_intersection,
    select_forward,
)


def test_point_basics():
    a = Point2(0.0, 0.0)
    b = Point2(3.0, 4.0)
    assert distance(a, b) == 5.0
    assert midpoint(a, b) == Point2(1.5, 2.0)


class TestDomain:
    def test_rejects_degenerate_extent(self):
        with pytest.raises(InputError):
            Domain(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(InputError):
            Domain(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(InputError):
            Domain(0.0, math.inf, 0.0, 1.0)

    def test_measures(self):
        d = Domain(-1.0, 2.0, 0.0, 4.0)
        assert d.width == 3.0
        assert d.height == 4.0
        assert d.perimeter == 14.0
        assert d.diagonal == 5.0
        assert d.center == Point2(0.5, 2.0)

    def test_corners_counterclockwise_from_lower_left(self):
        d = Domain(0.0, 2.0, 0.0, 1.0)
        assert list(d.corners()) == [
            Point2(0.0, 0.0),
            Point2(2.0, 0.0),
            Point2(2.0, 1.0),
            Point2(0.0, 1.0),
        ]

    def test_contains_is_closed(self):
        d = Domain(0.0, 1.0, 0.0, 1.0)
        assert d.contains(Point2(0.0, 0.0))
        assert d.contains(Point2(1.0, 1.0))
        assert not d.contains(Point2(1.0 + 1e-6, 0.5))
        assert not d.contains(Point2(0.5, -1e-6))


class TestCircleCircleIntersection:
    def test_standard_two_point_case(self):
        pts = circle_circle_intersection(
            Point2(0.0, 0.0), Point2(1.0, 0.0), 1.0, 1e-12
        )
        assert len(pts) == 2
        assert all(type(p) is tuple for p in pts)
        h = math.sqrt(3.0) / 2.0
        # left of the center-to-center direction comes first
        assert pts[0][0] == pytest.approx(0.5)
        assert pts[0][1] == pytest.approx(h)
        assert pts[1][1] == pytest.approx(-h)

    def test_tangent_gives_single_midpoint(self):
        pts = circle_circle_intersection(
            Point2(0.0, 0.0), Point2(2.0, 0.0), 1.0, 1e-9
        )
        assert len(pts) == 1
        assert pts[0] == Point2(1.0, 0.0)

    def test_disjoint_gives_nothing(self):
        assert (
            circle_circle_intersection(Point2(0.0, 0.0), Point2(5.0, 0.0), 1.0, 1e-12)
            == []
        )

    def test_coincident_centers_raise(self):
        with pytest.raises(CoincidentCentersError):
            circle_circle_intersection(Point2(1.0, 1.0), Point2(1.0, 1.0), 1.0, 1e-12)

    def test_points_lie_on_both_circles(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            c1 = Point2(*rng.uniform(-5, 5, 2))
            r = float(rng.uniform(0.1, 3.0))
            d = float(rng.uniform(0.2, 1.8)) * r
            ang = float(rng.uniform(0, 2 * math.pi))
            c2 = Point2(c1.x + d * math.cos(ang), c1.y + d * math.sin(ang))
            for p in circle_circle_intersection(c1, c2, r, 1e-12):
                assert distance(p, c1) == pytest.approx(r, abs=1e-9)
                assert distance(p, c2) == pytest.approx(r, abs=1e-9)


class TestSelectForward:
    def test_picks_left_side_candidate(self):
        inner = Point2(0.0, 0.0)
        outer = Point2(1.0, 0.0)
        up = Point2(0.5, 0.8)
        down = Point2(0.5, -0.8)
        assert select_forward(inner, outer, [down, up], 1e-9) == up
        assert select_forward(inner, outer, [up, down], 1e-9) == up

    def test_rejects_all_backward(self):
        inner = Point2(0.0, 0.0)
        outer = Point2(1.0, 0.0)
        with pytest.raises(NoForwardCandidateError):
            select_forward(inner, outer, [Point2(0.5, -0.8)], 1e-9)
        with pytest.raises(NoForwardCandidateError):
            select_forward(inner, outer, [], 1e-9)

    def test_rejects_fused_pair(self):
        p = Point2(2.0, 2.0)
        with pytest.raises(CoincidentCentersError):
            select_forward(p, p, [Point2(0.0, 0.0)], 1e-9)


class TestPerimeterCircleIntersection:
    def test_center_circle_hits_all_four_edges(self):
        d = Domain(0.0, 2.0, 0.0, 2.0)
        hits = perimeter_circle_intersection(d, Point2(1.0, 1.0), 1.2)
        # each side is cut h either side of its midpoint, side k at s = 2k + 1
        h = math.sqrt(1.2**2 - 1.0)
        want = [
            (Point2(1.0 - h, 0.0), 1.0 - h),
            (Point2(1.0 + h, 0.0), 1.0 + h),
            (Point2(2.0, 1.0 - h), 3.0 - h),
            (Point2(2.0, 1.0 + h), 3.0 + h),
            (Point2(1.0 + h, 2.0), 5.0 - h),
            (Point2(1.0 - h, 2.0), 5.0 + h),
            (Point2(0.0, 1.0 + h), 7.0 - h),
            (Point2(0.0, 1.0 - h), 7.0 + h),
        ]
        assert len(hits) == 8
        for (p, s), (want_p, want_s) in zip(hits, want):
            assert p == pytest.approx(want_p, abs=1e-12)
            assert s == pytest.approx(want_s, abs=1e-12)

    def test_corner_crossings_deduplicate(self):
        # circle through two opposite corners of the unit square
        d = Domain(0.0, 1.0, 0.0, 1.0)
        hits = perimeter_circle_intersection(d, Point2(0.0, 0.0), 1.0)
        assert len(hits) == 2
        assert hits[0][0] == pytest.approx(Point2(1.0, 0.0), abs=1e-9)
        assert hits[1][0] == pytest.approx(Point2(0.0, 1.0), abs=1e-9)

    def test_small_circle_on_one_edge(self):
        d = Domain(0.0, 4.0, 0.0, 4.0)
        hits = perimeter_circle_intersection(d, Point2(2.0, 0.0), 0.5)
        assert len(hits) == 2
        assert hits[0][0] == pytest.approx(Point2(1.5, 0.0), abs=1e-9)
        assert hits[1][0] == pytest.approx(Point2(2.5, 0.0), abs=1e-9)

    def test_interior_circle_misses_perimeter(self):
        d = Domain(0.0, 4.0, 0.0, 4.0)
        assert perimeter_circle_intersection(d, Point2(2.0, 2.0), 0.5) == []

