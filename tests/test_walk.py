import math

import numpy as np
import pytest

from edgewalk.classifier import make_classifier, make_test_classifier
from edgewalk.errors import (
    BudgetExhaustedError,
    FullPerimeterError,
    InputError,
    NoBoundaryFoundError,
)
from edgewalk.geometry import Domain, Point2, distance
from edgewalk.walk import (
    EdgeConfig,
    Termination,
    bisect,
    decision_boundary_walk,
    domain_boundary_walk,
    run_edge,
)

UNIT_SQUARE = Domain(0.0, 1.0, 0.0, 1.0)


def unit_circle_classifier():
    dom = Domain(-2.0, 2.0, -2.0, 2.0)
    return make_classifier(lambda x, y: x * x + y * y, 1.0, dom, "circle")


class TestBisect:
    def test_hand_worked_linear_case(self):
        # boundary at x = 0.7, seeds 1.0 apart, epsilon 0.1:
        # midpoints 0.5, 0.75, 0.625, 0.6875 then the gap is 0.0625
        c = make_classifier(lambda x, y: x, 0.7, UNIT_SQUARE, "ramp")
        tr = bisect(c, Point2(0.0, 0.0), Point2(1.0, 0.0), 0.1)
        assert tr.queries == 4
        assert c.query_count == 4
        assert tr.inner_end == Point2(0.6875, 0.0)
        assert tr.outer_end == Point2(0.75, 0.0)
        assert tr.gap == pytest.approx(0.0625)
        assert [p.x for p in tr.inner] == [0.0, 0.5, 0.625, 0.6875]
        assert [p.x for p in tr.outer] == [1.0, 0.75]

    def test_no_queries_when_pair_already_tight(self):
        c = make_classifier(lambda x, y: x, 0.7, UNIT_SQUARE, "ramp")
        tr = bisect(c, Point2(0.69, 0.0), Point2(0.71, 0.0), 0.1)
        assert tr.queries == 0
        assert c.query_count == 0
        assert tr.inner_end == Point2(0.69, 0.0)

    def test_query_count_follows_halving_law(self):
        # on any oracle the gap halves per query, so the count is exactly
        # ceil(log2(d0 / epsilon)) whenever d0 >= epsilon
        rng = np.random.default_rng(23)
        dom = Domain(-1.0, 1.0, -1.0, 1.0)
        for _ in range(100):
            ang = float(rng.uniform(0.0, 2.0 * math.pi))
            nx, ny = math.cos(ang), math.sin(ang)
            c0 = float(rng.uniform(-0.5, 0.5))

            def f(x, y, nx=nx, ny=ny):
                return nx * x + ny * y

            x_in = x_out = None
            while x_in is None or x_out is None:
                p = Point2(*(float(v) for v in rng.uniform(-1.0, 1.0, 2)))
                if f(p.x, p.y) < c0:
                    x_in = x_in or p
                else:
                    x_out = x_out or p
            eps = float(rng.uniform(0.02, 0.4))
            d0 = distance(x_in, x_out)
            expected = 0 if d0 < eps else math.ceil(math.log2(d0 / eps))
            c = make_classifier(f, c0, dom, "plane")
            tr = bisect(c, x_in, x_out, eps)
            assert tr.queries == expected
            assert tr.gap < eps
            assert f(*tr.inner_end) < c0 <= f(*tr.outer_end)

    def test_rejects_bad_epsilon(self):
        c = make_classifier(lambda x, y: x, 0.7, UNIT_SQUARE, "ramp")
        with pytest.raises(InputError):
            bisect(c, Point2(0.0, 0.0), Point2(1.0, 0.0), 0.0)


class TestUnitCircleWalk:
    EPS = 0.05

    def run(self):
        c = unit_circle_classifier()
        return run_edge(c, EdgeConfig(epsilon=self.EPS))

    def test_closes_the_loop(self):
        est = self.run()
        assert est.termination is Termination.CLOSED_LOOP
        assert len(est.inner) > 100
        assert len(est.outer) > 100

    def test_all_points_within_epsilon_of_circle(self):
        est = self.run()
        for p in est.inner + est.outer:
            assert abs(math.hypot(p.x, p.y) - 1.0) <= self.EPS + 1e-12

    def test_labels_are_consistent(self):
        est = self.run()
        assert all(math.hypot(p.x, p.y) < 1.0 for p in est.inner)
        assert all(math.hypot(p.x, p.y) >= 1.0 for p in est.outer)

    def test_every_walk_query_lands_in_the_estimate(self):
        est = self.run()
        assert est.walk_queries == est.walk_points_appended

    def test_bracket_certificate(self):
        # each appended point is within epsilon of the latest point of the
        # opposite label at the time it was appended
        est = self.run()
        pts = est.points_in_order()
        latest = {1: pts[0][0], 0: pts[1][0]}
        assert distance(latest[1], latest[0]) <= self.EPS
        for p, lab in pts[2:]:
            assert distance(p, latest[1 - lab]) <= self.EPS + 1e-12
            latest[lab] = p

    def test_loop_closes_near_the_start(self):
        est = self.run()
        pts = [p for p, _ in est.points_in_order()]
        back = min(distance(pts[-1], est.inner[0]), distance(pts[-1], est.outer[0]))
        assert back <= self.EPS + 1e-12

    def test_runs_are_deterministic(self):
        a = self.run()
        b = self.run()
        assert a.points_in_order() == b.points_in_order()
        assert a.total_queries == b.total_queries


def _dist_to_polyline(p, verts):
    best = math.inf
    for a, b in zip(verts, verts[1:]):
        ax, ay = a
        bx, by = b
        vx, vy = bx - ax, by - ay
        t = ((p.x - ax) * vx + (p.y - ay) * vy) / (vx * vx + vy * vy)
        t = min(1.0, max(0.0, t))
        best = min(best, math.hypot(p.x - (ax + t * vx), p.y - (ay + t * vy)))
    return best


class TestDomainClippedWalk:
    # lower half-strip: the region boundary leaves the domain on both
    # sides, so the walk must round three perimeter edges and two corners
    EPS = 0.05

    def run(self):
        c = make_classifier(lambda x, y: y, 0.5, UNIT_SQUARE, "half")
        cfg = EdgeConfig(
            epsilon=self.EPS,
            seed_interior=Point2(0.5, 0.25),
            seed_exterior=Point2(0.5, 0.75),
        )
        return run_edge(c, cfg)

    def test_closes_around_the_clipped_region(self):
        est = self.run()
        assert est.termination is Termination.CLOSED_LOOP
        # boundary of {y <= 0.5} within the unit square
        region = [(0.0, 0.5), (0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.0, 0.5)]
        for p in est.inner + est.outer:
            assert _dist_to_polyline(p, region) <= self.EPS + 1e-9

    def test_perimeter_was_walked(self):
        est = self.run()
        on_bottom = [p for p in est.inner if abs(p.y) <= 1e-9]
        on_left = [p for p in est.inner if abs(p.x) <= 1e-9]
        on_right = [p for p in est.inner if abs(p.x - 1.0) <= 1e-9]
        assert len(on_bottom) >= 10
        assert on_left and on_right

    def test_inner_outer_labels_cover_both_sides(self):
        est = self.run()
        assert all(p.y < 0.5 for p in est.inner)
        assert all(p.y >= 0.5 for p in est.outer)


def test_domain_walk_raises_after_full_lap():
    dom = UNIT_SQUARE
    c = make_classifier(lambda x, y: -1.0, 0.0, dom, "allin")
    inner = [Point2(0.5, 0.001)]
    outer = [Point2(0.5, 0.06)]
    labels = [1, 0]
    with pytest.raises(FullPerimeterError):
        domain_boundary_walk(c, inner, outer, labels, 0.05)


def rim_interior_half_plane():
    """The half-plane y < 0.5, except that every rim point is interior."""

    def fn(x, y):
        on_rim = x <= 0.0 or x >= 1.0 or y <= 0.0 or y >= 1.0
        return -1.0 if on_rim else y

    return make_classifier(fn, 0.5, UNIT_SQUARE, "rim-interior")


def test_geometric_failure_mid_walk_returns_partial_estimate():
    # the walk meets the rim, whose interior points go all the way round
    c = rim_interior_half_plane()
    cfg = EdgeConfig(
        epsilon=0.05,
        seed_interior=Point2(0.5, 0.25),
        seed_exterior=Point2(0.5, 0.75),
    )
    est = run_edge(c, cfg)
    assert est.termination is Termination.FAILED
    assert "full domain boundary" in est.failure
    assert est.total_queries == c.query_count
    assert (
        est.seed_queries + est.bisection_queries + est.walk_queries
        == est.total_queries
    )
    assert len(est.labels_order) == len(est.inner) + len(est.outer)
    # the partial lap stays in the estimate, every point with its label
    on_rim = [p for p in est.inner if p.x in (0.0, 1.0) or p.y in (0.0, 1.0)]
    assert len(on_rim) >= 0.9 * UNIT_SQUARE.perimeter / 0.05
    assert all(c.label_fn(p) == 1 for p in est.inner)
    assert all(c.label_fn(p) == 0 for p in est.outer)
    assert est.walk_points_appended > len(on_rim)
    assert run_edge(rim_interior_half_plane(), cfg).points_in_order() == (
        est.points_in_order()
    )


def test_single_label_domain_reports_no_boundary():
    c = make_classifier(lambda x, y: 1.0, 0.5, UNIT_SQUARE, "allout")
    with pytest.raises(NoBoundaryFoundError):
        run_edge(c, EdgeConfig(epsilon=0.1))


def test_budget_death_in_walk_returns_partial_estimate():
    c = unit_circle_classifier()
    cfg = EdgeConfig(
        epsilon=0.05,
        seed_interior=Point2(0.0, 0.0),
        seed_exterior=Point2(1.9, 0.0),
        max_queries=40,
    )
    est = run_edge(c, cfg)
    assert est.termination is Termination.BUDGET_EXHAUSTED
    assert est.total_queries == 40
    assert len(est.inner) + len(est.outer) > 4


def test_budget_death_before_walk_raises():
    c = unit_circle_classifier()
    cfg = EdgeConfig(
        epsilon=0.05,
        seed_interior=Point2(0.0, 0.0),
        seed_exterior=Point2(1.9, 0.0),
        max_queries=3,
    )
    with pytest.raises(BudgetExhaustedError):
        run_edge(c, cfg)


def test_seed_labels_are_verified():
    c = unit_circle_classifier()
    cfg = EdgeConfig(
        epsilon=0.05,
        seed_interior=Point2(1.9, 0.0),
        seed_exterior=Point2(0.0, 0.0),
    )
    with pytest.raises(InputError):
        run_edge(c, cfg)


def test_config_validation():
    dom = Domain(-2.0, 2.0, -2.0, 2.0)
    with pytest.raises(InputError):
        EdgeConfig(epsilon=5.0).validate_for(dom)
    with pytest.raises(InputError):
        EdgeConfig(epsilon=-0.1).validate_for(dom)
    with pytest.raises(InputError):
        EdgeConfig(epsilon=0.1, seed_interior=Point2(0.0, 0.0)).validate_for(dom)
    with pytest.raises(InputError):
        EdgeConfig(epsilon=0.1, max_queries=0).validate_for(dom)
    with pytest.raises(InputError):
        EdgeConfig(
            epsilon=0.1,
            seed_interior=Point2(0.0, 0.0),
            seed_exterior=Point2(3.0, 0.0),
        ).validate_for(dom)


def test_default_budget_scales_with_perimeter():
    dom = Domain(0.0, 2.0, 0.0, 1.0)
    assert EdgeConfig(epsilon=0.1).budget_for(dom) == 600
    assert EdgeConfig(epsilon=0.1, max_queries=77).budget_for(dom) == 77


def test_benchmark_walk_regression():
    c = make_test_classifier("rosenbrock")
    est = run_edge(c, EdgeConfig(epsilon=0.1))
    assert est.termination is Termination.CLOSED_LOOP
    assert 800 < est.total_queries < 1200
    assert est.seed_queries + est.bisection_queries + est.walk_queries == est.total_queries
