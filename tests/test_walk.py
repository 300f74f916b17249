import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, reject, seed, settings
from hypothesis import strategies as st

import clipped
from replay import replay
from edgewalk.classifier import Classifier, make_classifier, make_test_classifier
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
    _Budget,
    _seed_search,
    _walk_points,
    run_edge,
    seed_scan,
)

UNIT_SQUARE = Domain(0.0, 1.0, 0.0, 1.0)


def unit_circle_classifier():
    dom = Domain(-2.0, 2.0, -2.0, 2.0)
    return make_classifier(lambda x, y: x * x + y * y, 1.0, dom, "circle")


def bisect_only(c, x_in, x_out, eps, expected):
    """run_edge from explicit seeds with a budget of seeds plus expected.

    The bisection spends exactly expected queries, so the walk's first
    query exhausts the budget and est.inner[0], est.outer[0] is the
    refined pair.
    """
    cfg = EdgeConfig(
        eps, seed_interior=x_in, seed_exterior=x_out, max_queries=2 + expected
    )
    est = run_edge(c, cfg)
    assert est.walk_queries == 0
    assert est.total_queries == c.query_count == 2 + est.bisection_queries
    return est


class TestBisect:
    def test_hand_worked_linear_case(self, record_queries):
        # boundary at x = 0.7, seeds 1.0 apart, epsilon 0.1:
        # midpoints 0.5, 0.75, 0.625, 0.6875 then the gap is 0.0625
        c = make_classifier(lambda x, y: x, 0.7, UNIT_SQUARE, "ramp")
        asked = record_queries(c)
        est = bisect_only(c, Point2(0.0, 0.0), Point2(1.0, 0.0), 0.1, 4)
        assert est.termination is Termination.BUDGET_EXHAUSTED
        assert est.bisection_queries == 4
        assert [(p[0], label) for p, label in asked[2:]] == [
            (0.5, 1),
            (0.75, 0),
            (0.625, 1),
            (0.6875, 1),
        ]
        assert all(p[1] == 0.0 for p, _ in asked)
        assert est.inner[0] == Point2(0.6875, 0.0)
        assert est.outer[0] == Point2(0.75, 0.0)
        assert distance(est.inner[0], est.outer[0]) == pytest.approx(0.0625)

    def test_no_queries_when_pair_already_tight(self):
        c = make_classifier(lambda x, y: x, 0.7, UNIT_SQUARE, "ramp")
        est = bisect_only(c, Point2(0.69, 0.0), Point2(0.71, 0.0), 0.1, 0)
        assert est.bisection_queries == 0
        assert c.query_count == 2
        assert est.inner[0] == Point2(0.69, 0.0)
        assert est.outer[0] == Point2(0.71, 0.0)

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
            est = bisect_only(c, x_in, x_out, eps, expected)
            assert est.bisection_queries == expected
            assert distance(est.inner[0], est.outer[0]) < eps
            assert f(*est.inner[0]) < c0 <= f(*est.outer[0])

    def test_rejects_bad_epsilon(self):
        # run_edge refuses epsilon 0 before bisecting, where halving the
        # gap would never end
        c = make_classifier(lambda x, y: x, 0.7, UNIT_SQUARE, "ramp")
        cfg = EdgeConfig(
            0.0, seed_interior=Point2(0.0, 0.0), seed_exterior=Point2(1.0, 0.0)
        )
        with pytest.raises(InputError):
            run_edge(c, cfg)
        assert c.query_count == 0


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
        c = unit_circle_classifier()
        est = run_edge(c, EdgeConfig(epsilon=self.EPS))
        walk_queries = c.query_count - est.seed_queries - est.bisection_queries
        assert len(est.inner) + len(est.outer) == 2 + walk_queries

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


def half_strip():
    """y < 0.5 on the unit square, walked from a bracket across its line."""
    c = make_classifier(lambda x, y: y, 0.5, UNIT_SQUARE, "half")
    seeds = {"seed_interior": (0.5, 0.25), "seed_exterior": (0.5, 0.75)}
    return c, seeds


class TestDomainClippedWalk:
    # lower half-strip: the region boundary leaves the domain on both
    # sides, so the walk must round three perimeter edges and two corners
    EPS = 0.05

    def run(self):
        c, seeds = half_strip()
        return run_edge(c, EdgeConfig(epsilon=self.EPS, **seeds))

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
    # every point is interior, so the rim episode the first decision step
    # starts never finds an exterior point and goes all the way round
    dom = UNIT_SQUARE
    label = make_classifier(lambda x, y: -1.0, 0.0, dom, "allin").label_fn
    walk = _walk_points(dom, (Point2(0.5, 0.001), Point2(0.5, 0.04)), 0.05)
    points, labels = [], []
    with pytest.raises(FullPerimeterError) as failure:
        p = next(walk)
        while True:
            points.append(p)
            labels.append(label(p))
            p = walk.send(labels[-1])
    assert str(failure.value) == (
        "perimeter walk traversed the full domain boundary without "
        "leaving the interior set"
    )
    assert labels == [1] * len(points)
    on_rim = [p for p in points if p[0] in (0.0, 1.0) or p[1] in (0.0, 1.0)]
    assert len(on_rim) >= dom.perimeter / 0.05


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
    # the partial lap stays in the estimate, every point with its label
    walk_queries = c.query_count - est.seed_queries - est.bisection_queries
    assert len(est.inner) + len(est.outer) == 2 + walk_queries
    on_rim = [p for p in est.inner if p.x in (0.0, 1.0) or p.y in (0.0, 1.0)]
    assert len(on_rim) >= 0.9 * UNIT_SQUARE.perimeter / 0.05
    assert all(c.label_fn(p) == 1 for p in est.inner)
    assert all(c.label_fn(p) == 0 for p in est.outer)
    assert walk_queries > len(on_rim)
    assert run_edge(rim_interior_half_plane(), cfg).points_in_order() == (
        est.points_in_order()
    )
    replay(est, c.domain)


def test_single_label_domain_reports_no_boundary():
    c = make_classifier(lambda x, y: 1.0, 0.5, UNIT_SQUARE, "allout")
    with pytest.raises(NoBoundaryFoundError):
        run_edge(c, EdgeConfig(epsilon=0.1))


def all_pairs_bracket(probes, labels):
    """The closest opposite-label pair, (inner, outer), by brute force.

    Every interior probe against every exterior probe, in scan order;
    ties go to the latest pair.
    """
    best, best_d = None, math.inf
    for p_in in [p for p, label in zip(probes, labels) if label == 1]:
        for p_out in [p for p, label in zip(probes, labels) if label == 0]:
            d = distance(p_in, p_out)
            if d <= best_d:
                best, best_d = (p_in, p_out), d
    return best


@pytest.mark.parametrize(
    "domain", [Domain(-1.0, 1.0, -1.0, 1.0), Domain(0.0, 3.0, 0.0, 1.0)]
)
def test_seed_search_bracket_matches_all_pairs_search(domain):
    # the scan ends at its first probe of the other label; on these grids
    # several earlier probes lie at the same distance from it: 38 of the
    # square's 89 ends and 7 of the rectangle's
    eps = 0.2
    scan = list(seed_scan(domain, eps))
    ties = 0
    for count in range(2, len(scan) + 1):
        last = scan[count - 1]
        nearest = min(distance(p, last) for p in scan[: count - 1])
        ties += sum(distance(p, last) == nearest for p in scan[: count - 1]) > 1
        for first in (0, 1):
            c = Classifier(lambda p: 1 - first if p == last else first, domain)
            labels = [first] * (count - 1) + [1 - first]
            pair, scan_label = _seed_search(_Budget(c, len(scan)), eps)
            assert c.query_count == count
            assert scan_label == first
            assert pair == all_pairs_bracket(scan[:count], labels)
    assert ties >= 7


def discs_kept_memory():
    """(estimate, bytes it keeps, bytes with inner and outer built) per disc.

    The discs have radius 0.004 and 0.3.  The small disc's seed scan
    makes 11,953 of its 12,010 queries; the large disc's scan makes 16 of
    4,176.
    """
    out = []
    for r in (0.004, 0.3):
        c = make_classifier(
            lambda x, y: (x - 0.37) ** 2 + (y + 0.21) ** 2, r * r, SQUARE
        )
        tracemalloc.start()
        try:
            est = run_edge(c, EdgeConfig(epsilon=0.001))
            # a full collection empties CPython's free lists, whose spare
            # (x, y) tuples left over from the walk would count as kept
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
            assert len(est.inner) + len(est.outer) > 2
            with_sides = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        out.append((est, kept, with_sides))
    return out


def test_kept_memory_grows_with_the_log_not_the_scan():
    discs = discs_kept_memory()
    (small, small_kept, _), (large, _, _) = discs
    assert small.seed_queries == 11_953
    assert small.seed_queries > 100 * large.seed_queries
    assert small_kept < 64 * 1024
    # a logged point costs about 17 bytes packed, and about 120 more once
    # inner and outer hold it as a Point2
    for est, kept, with_sides in discs:
        assert kept < 4096 + 24 * len(est.labels)
        assert with_sides < 4096 + 160 * len(est.labels)


def test_run_peaks_at_its_packed_log():
    # each query joins the packed log as the run makes it, so the run
    # peaks at the log's 17 bytes a query plus the array's spare room;
    # a list of the queried tuples peaked at about 131
    run_edge(unit_circle_classifier(), EdgeConfig(epsilon=0.05))  # warm-up
    c = unit_circle_classifier()
    gc.collect()
    tracemalloc.start()
    try:
        est = run_edge(c, EdgeConfig(epsilon=0.0005))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.termination is Termination.CLOSED_LOOP
    assert est.total_queries > 20_000
    assert peak < 4096 + 24 * est.total_queries


def tracked_objects_kept(epsilon):
    """(estimate, GC-tracked objects added) by a unit-circle run at epsilon."""
    c = unit_circle_classifier()
    gc.collect()
    before = len(gc.get_objects())
    est = run_edge(c, EdgeConfig(epsilon=epsilon))
    gc.collect()
    return est, len(gc.get_objects()) - before


def test_finished_estimate_adds_constant_gc_tracked_objects():
    # the packed log holds no object per point, so a full collection has
    # as much to traverse after a 20,000-query walk as after a 200-query
    # one, until inner and outer are built
    tracked_objects_kept(0.07)
    short, short_added = tracked_objects_kept(0.07)
    long, long_added = tracked_objects_kept(0.0007)
    assert short.termination is long.termination is Termination.CLOSED_LOOP
    assert 150 < short.walk_queries < 250 and 15_000 < long.walk_queries < 25_000
    assert abs(long_added - short_added) < 50
    # the count does see points kept as objects: each Point2 stays tracked
    before = len(gc.get_objects())
    assert len(long.inner) + len(long.outer) == long.walk_queries + 2
    gc.collect()
    assert len(gc.get_objects()) - before > long.walk_queries


def test_budget_death_in_walk_returns_partial_estimate(record_queries, bits):
    # the budget ends among decision steps on the unit circle, and inside
    # the rim episode along the bottom of the half-strip, whose 12 decision
    # steps come after 6 seed and bisection queries
    circle = unit_circle_classifier()
    circle_seeds = {"seed_interior": (0.0, 0.0), "seed_exterior": (1.9, 0.0)}
    for c, seeds, on_rim_at_death in [
        (circle, circle_seeds, False),
        (*half_strip(), True),
    ]:
        asked = record_queries(c)
        est = run_edge(c, EdgeConfig(epsilon=0.05, max_queries=40, **seeds))
        assert est.termination is Termination.BUDGET_EXHAUSTED
        assert est.total_queries == 40
        assert len(est.inner) + len(est.outer) > 4
        last, label = est.points_in_order()[-1]
        assert (label == 1 and on_rim(last, c.domain)) is on_rim_at_death
        # every query after the bracket pair is the next estimate point
        walk = asked[est.seed_queries + est.bisection_queries :]
        kept = est.points_in_order()[2:]
        assert len(walk) == len(kept) == est.walk_queries
        assert bits(walk) == bits(kept)
        replay(est, c.domain)


def test_rim_span_resets_at_each_episode():
    # the triangle x + y < -1.96 in a corner, legs 0.04, is too small for
    # the walk to escape its start, so the walk runs until the budget ends,
    # round and round, through 531 rim episodes of one rim point each that
    # cover about twice the perimeter of 8.  A span carried from one
    # episode to the next would end it failed on a full lap.  A walk that
    # closes cannot show this: one lap walks less than the whole rim.
    dom = Domain(-1.0, 1.0, -1.0, 1.0)
    c = make_classifier(lambda x, y: x + y, -1.96, dom)
    est = run_edge(c, EdgeConfig(epsilon=0.03))
    assert est.termination is Termination.BUDGET_EXHAUSTED
    pts = est.points_in_order()
    rim = [lab == 1 and on_rim(p, dom) for p, lab in pts]
    episodes = sum(now and not before for before, now in zip(rim, rim[1:]))
    assert episodes > 100
    assert sum(rim) * 0.03 > 1.5 * dom.perimeter


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
        EdgeConfig(epsilon=0.0).validate_for(dom)
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
    # seeds closer than the domain's geometric tolerance, about 5.7e-9 here,
    # leave the first step no circle intersection
    with pytest.raises(InputError, match="geometric tolerance"):
        EdgeConfig(
            epsilon=0.1,
            seed_interior=Point2(0.0, 0.0),
            seed_exterior=Point2(0.0, 5e-9),
        ).validate_for(dom)
    EdgeConfig(
        epsilon=0.1,
        seed_interior=Point2(0.0, 0.0),
        seed_exterior=Point2(0.0, 1e-8),
    ).validate_for(dom)


def test_epsilon_within_twice_the_tolerance_is_refused_before_any_query():
    # the bisection may leave the pair epsilon/2 apart, within the
    # geometric tolerance once epsilon <= 2 tol; such runs used to spend
    # 32-46 queries and then end failed on coincident circle centres
    dom = Domain(-1.0, 1.0, -1.0, 1.0)
    bound = 2.0 * dom.geom_tol  # about 5.66e-9
    for eps in (bound, 3e-9, 1e-9, 1e-12):
        c = make_classifier(lambda x, y: x, 0.1, dom)
        with pytest.raises(InputError, match="geometric tolerance"):
            run_edge(c, EdgeConfig(epsilon=eps))
        assert c.query_count == 0
    # the rim floor lies above that bound here; one ulp above the floor
    # the walk steps until its budget ends
    c = make_classifier(lambda x, y: x, 0.1, dom)
    eps = math.nextafter(RIM_FLOOR, math.inf)
    est = run_edge(c, EdgeConfig(epsilon=eps, max_queries=300))
    assert est.termination is Termination.BUDGET_EXHAUSTED
    assert est.walk_queries > 200


# sqrt(28 u) times the longest side of [-1, 1]^2, u = 2^-53: the smallest
# epsilon a rim step resolves there (see EdgeConfig.validate_for)
RIM_FLOOR = math.sqrt(28.0 * 2.0**-53) * 2.0  # about 1.1e-7


def test_epsilon_the_rim_step_cannot_resolve_is_refused_before_any_query():
    # above twice the tolerance, but a rim step's quadratic rounds these
    # epsilons away against the side: the half-plane's walk used to reach
    # the right side and end failed after 32-33 queries
    dom = Domain(-1.0, 1.0, -1.0, 1.0)
    assert 2.0 * dom.geom_tol < 6e-9 < 1e-8 < RIM_FLOOR
    for eps in (6e-9, 1e-8, RIM_FLOOR):
        c = make_classifier(lambda x, y: 0.3 * x - 0.7 * y, 0.1, dom)
        with pytest.raises(InputError, match="smallest rim step"):
            run_edge(c, EdgeConfig(epsilon=eps))
        assert c.query_count == 0
    c = make_classifier(lambda x, y: 0.3 * x - 0.7 * y, 0.1, dom)
    eps = math.nextafter(RIM_FLOOR, math.inf)
    est = run_edge(c, EdgeConfig(epsilon=eps, max_queries=300))
    assert est.termination is not Termination.FAILED
    assert any(on_rim(p, dom) for p in est.inner + est.outer)


@pytest.mark.parametrize(
    "center, half, radius, eps",
    [(1e9, 1e-6, 5e-7, 3e-8), (1e15, 1.0, 0.5, 0.03)],
    ids=["1e9", "1e15"],
)
def test_epsilon_below_the_float_spacing_is_refused_before_any_query(
    center, half, radius, eps
):
    # coordinates near 1e9 are 1.2e-7 apart and near 1e15 0.125 apart, so
    # the bisection's midpoint rounds onto an endpoint and the gap never
    # shrinks to epsilon: these runs used to spend their whole budgets,
    # 2,544 and 2,667 queries, and raise BudgetExhaustedError
    dom = Domain(center - half, center + half, center - half, center + half)
    spacing = math.ulp(center + half)
    assert eps < spacing

    def disc(x, y):
        return (x - center) ** 2 + (y - center) ** 2

    c = make_classifier(disc, radius * radius, dom)
    with pytest.raises(InputError, match="float spacing"):
        run_edge(c, EdgeConfig(epsilon=eps))
    assert c.query_count == 0
    # sixteen spacings are refused; the next float up walks round the disc
    with pytest.raises(InputError, match="float spacing"):
        EdgeConfig(epsilon=16.0 * spacing).validate_for(dom)
    reach = 1e4 * spacing
    wide = Domain(center - reach, center + reach, center - reach, center + reach)
    c = make_classifier(disc, (reach / 2.0) ** 2, wide)
    est = run_edge(c, EdgeConfig(epsilon=math.nextafter(16.0 * spacing, math.inf)))
    assert est.termination is Termination.CLOSED_LOOP


@pytest.mark.parametrize(
    "seed",
    [(0.0, 0.0, 1.0), (0.0,), "ab", (math.nan, 0.0)],
    ids=["three-numbers", "one-number", "string", "nan"],
)
@pytest.mark.parametrize("side", ["seed_interior", "seed_exterior"])
def test_malformed_seed_is_input_error(seed, side):
    dom = Domain(-2.0, 2.0, -2.0, 2.0)
    seeds = {"seed_interior": (0.0, 0.0), "seed_exterior": (1.0, 0.0)}
    seeds[side] = seed
    config = EdgeConfig(epsilon=0.1, **seeds)
    name = side.removeprefix("seed_")
    with pytest.raises(InputError, match="not a pair of finite numbers") as err:
        config.validate_for(dom)
    assert str(err.value).startswith(f"{name} seed {seed!r} ")
    c = make_classifier(lambda x, y: x, 0.5, dom)
    with pytest.raises(InputError):
        run_edge(c, config)
    assert c.query_count == 0


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


# --- property: walks on generated shapes clipped by the domain ----------------

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


@st.composite
def clipped_shapes(draw):
    """(field, threshold) of a half-plane or a rotated ellipse over SQUARE.

    Either may run off the square, so walks meet the rim and its corners.
    """
    if draw(st.booleans()):
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        a, b = math.cos(theta), math.sin(theta)
        c = draw(st.floats(-0.9, 0.9)) * (abs(a) + abs(b))
        return (lambda x, y: a * x + b * y), c
    cx, cy = draw(st.floats(-0.8, 0.8)), draw(st.floats(-0.8, 0.8))
    ra, rb = draw(st.floats(0.1, 0.6)), draw(st.floats(0.1, 0.6))
    phi = draw(st.floats(0.0, math.pi))
    co, si = math.cos(phi), math.sin(phi)

    def fn(x, y):
        dx, dy = x - cx, y - cy
        u = (dx * co + dy * si) / ra
        v = (-dx * si + dy * co) / rb
        return u * u + v * v

    return fn, 1.0


def on_rim(p, dom):
    return p[0] in (dom.x_min, dom.x_max) or p[1] in (dom.y_min, dom.y_max)


@settings(max_examples=100, deadline=None)
@given(clipped_shapes(), st.floats(0.02, 0.2))
def test_walk_on_clipped_shapes_keeps_its_guarantees(shape, eps):
    fn, threshold = shape
    c = make_classifier(fn, threshold, SQUARE)
    try:
        est = run_edge(c, EdgeConfig(epsilon=eps))
    except NoBoundaryFoundError:
        reject()
    assert all(fn(*p) < threshold for p in est.inner)
    assert all(fn(*p) >= threshold for p in est.outer)
    assert est.total_queries == c.query_count
    assert (
        est.seed_queries + est.bisection_queries + est.walk_queries
        == est.total_queries
    )
    # every appended point brackets the boundary with the latest point of
    # the other label, except interior points the rim walk steps along
    reach = eps * (1.0 + 1e-12) + SQUARE.geom_tol
    pts = est.points_in_order()
    latest = {1: pts[0][0], 0: pts[1][0]}
    assert distance(latest[1], latest[0]) < eps
    for p, lab in pts[2:]:
        if not (lab == 1 and on_rim(p, SQUARE)):
            assert distance(p, latest[1 - lab]) <= reach
        latest[lab] = p
    # each decision step lies epsilon from the one before, so the walk
    # never repeats a test point
    for d in clipped.decision_step_lengths([p for p, _ in pts], SQUARE):
        assert math.isclose(d, eps, rel_tol=1e-12)
    again = run_edge(make_classifier(fn, threshold, SQUARE), EdgeConfig(epsilon=eps))
    assert again.points_in_order() == pts
    # the walk, sent the logged labels alone, yields the logged points
    replay(est, SQUARE)


def test_anchor_closes_a_walk_started_beside_a_corner():
    # an ellipse cut nearly in half by the bottom side, walked from a
    # bracket 0.005 wide at the corner (-1, -1): the lap returns within
    # epsilon of the anchor, the pair its first in-domain decision step
    # starts from, and closes there after 1.3 laps; without that target it
    # went on to 1.9 laps, 74 queries
    shape = clipped.ellipse(
        -0.6700428248877667, -1.021353379907092, 0.3250118222182298,
        0.427438500238288, 2.905320895395245,
    )
    c = make_classifier(shape.fn, shape.threshold, SQUARE)
    config = EdgeConfig(
        0.0822356240434466, seed_interior=(-0.995, -1.0), seed_exterior=(-1.0, -1.0)
    )
    est = run_edge(c, config)
    assert est.termination is Termination.CLOSED_LOOP
    assert est.total_queries == 46
    points = [p for p, _ in est.points_in_order()]
    assert clipped.laps(points, shape) < 1.5


@st.composite
def wide_clipped_shapes(draw):
    """(shape, epsilon): a `clipped` half-plane or ellipse wider than 2 epsilon."""
    eps = draw(st.floats(0.02, 0.2))
    shape = draw(clipped.shapes())
    assume(shape.wide(eps))
    return shape, eps


# a fixed seed and no example database: the vertex bound below is
# empirical (the largest gap seen in 2,400 random clipped walks was 0.967
# of it), so a run must not turn on the draw, nor on an edit to this file
@seed(271828)
@settings(max_examples=200, deadline=None, database=None)
@given(wide_clipped_shapes())
def test_walk_on_a_wide_clipped_shape_closes_in_one_lap(shape_eps):
    shape, eps = shape_eps
    c = make_classifier(shape.fn, shape.threshold, SQUARE)
    try:
        est = run_edge(c, EdgeConfig(epsilon=eps))
    except NoBoundaryFoundError:
        reject()
    assert est.termination is Termination.CLOSED_LOOP
    points = [p for p, _ in est.points_in_order()]
    # one lap, less the reach of the closure test: the walk stops once
    # within epsilon of its start pair, about 2 epsilon short at most (2.2
    # in 600 draws); the half-lap closure on the 2.01-epsilon triangle of
    # the tight-turn test below falls 0.19 laps under this bound
    laps = clipped.laps(points, shape)
    assert 1.0 - 3.0 * eps / sum(shape.lengths()) <= laps <= 1.2
    # a rim vertex lies within epsilon of a walk point, except where the
    # outline turns through an acute angle there: the walk meets the rim
    # up to about epsilon / sin(angle) short of such a corner
    for gap, angle in clipped.rim_vertex_gaps(points, shape.outline):
        assert gap <= eps / math.sin(math.radians(min(angle, 90.0)))
    # each decision step lies epsilon from the one before
    for d in clipped.decision_step_lengths(points, SQUARE):
        assert math.isclose(d, eps, rel_tol=1e-12)


def _walk_disc(radius, seed_exterior, eps=0.05):
    """Walk the disc of radius times eps round the origin, from the centre."""
    r = radius * eps
    c = make_classifier(lambda x, y: x * x + y * y, r * r, SQUARE, "disc")
    return run_edge(
        c, EdgeConfig(eps, seed_interior=(0.0, 0.0), seed_exterior=seed_exterior)
    )


@pytest.mark.parametrize("radius", [k / 10 for k in range(9, 31)])
def test_small_disc_closes_within_forty_walk_queries(radius):
    # the gate of any change to the closure rule: a 3-epsilon escape radius
    # ran the discs of 0.9-1.2 epsilon to their budget of 1,594 walk queries
    # (they take 6-39 here); up to about 1.1 epsilon the walk escapes its
    # start pair by exactly 2 epsilon, to the bit when seeded along an axis,
    # so the escape test must pass at 2 epsilon, not only beyond it
    for seed_exterior in [(0.4, 0.3), (0.5, 0.0)]:
        est = _walk_disc(radius, seed_exterior)
        assert est.termination is Termination.CLOSED_LOOP
        assert est.walk_queries <= 40


# --- open walk faults ---------------------------------------------------------
# Each test asserts what the walk should do on a shape where it fails
# today, and cites the FOUND line in CHANGES.md that describes the fault.
# They are strict, so the change that fixes one sees it pass and drops its
# mark.


def _walk_clipped(shape, eps):
    c = make_classifier(shape.fn, shape.threshold, SQUARE)
    est = run_edge(c, EdgeConfig(epsilon=eps))
    return est, [p for p, _ in est.points_in_order()]


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: a walk closes after a fraction of a lap "
    "round a turn of radius about epsilon",
)
@pytest.mark.parametrize(
    "shape, eps",
    [
        # closes after 6 walk queries, 0.066 of a lap
        (
            clipped.ellipse(
                0.258030360819147, 0.7621591243808461, 0.26095568154992155,
                0.4654322902959075, 0.7094674975404951,
            ),
            0.11496600704859362,
        ),
        # a triangle 2.01 epsilon wide: closes after 9 walk queries, 0.54 of a lap
        (clipped.halfplane(0.5176646566730481, -0.8570985296053372), 0.09673745596977215),
    ],
    ids=["ellipse", "triangle"],
)
def test_walk_round_a_tight_turn_closes_after_about_one_lap(shape, eps):
    est, points = _walk_clipped(shape, eps)
    assert est.termination is Termination.CLOSED_LOOP
    assert 0.9 <= clipped.laps(points, shape) <= 1.2


def test_walk_round_a_small_outside_corner_closes_in_one_lap():
    # -0.5690388566665372 x - 0.8223106344950429 y < 1.2251180638511179:
    # the outside is a corner triangle with legs of 1.2 and 1.75 epsilon,
    # so a lap is one long rim episode; without the escape test on its
    # interior rim points the walk closed after 2.94 laps, 142 walk
    # queries; with it, after 0.97 laps, 46 walk queries
    shape = clipped.halfplane(-2.176132876238634, 0.8805250381974966)
    est, points = _walk_clipped(shape, 0.166)
    assert est.termination is Termination.CLOSED_LOOP
    assert clipped.laps(points, shape) <= 1.2


def test_walk_beside_a_short_rim_edge_closes():
    # -0.9895852519161209 x + 0.14394800863543616 y < -0.8158804474632957,
    # whose clipped part has a top edge 0.03 long next to the corner (1, 1):
    # the walk escapes its start pair but never its anchor, and while only
    # the anchor armed the arclength target it repeated the rim exit
    # (0.935526736091692, 1.0) 530 times and ended budget_exhausted after
    # 1,098 queries; now it closes after 40.  How much of a lap it covers
    # is left to ROADMAP item 3.
    shape = clipped.halfplane(2.9971428263892776, -0.7197675408891864)
    est, _ = _walk_clipped(shape, 0.0729242452907386)
    assert est.termination is Termination.CLOSED_LOOP
