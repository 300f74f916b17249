"""The tableau simplex against the dense-solve simplex it replaced.

seed_solve_bounded_lp below is the reference: every pivot rebuilds the
basis matrix, prices with one dense solve, computes the entering column
with another and re-solves the basic values with a third.  The tableau
solver must walk the same pivot path, so each case asserts the same
status, the same iteration count (bound flips included) and the same
objective to 1e-9.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk.dcopf import build_feasibility_lp, default_network, lp_feasible, make_dcopf_classifier
from edgewalk.errors import InputError, SolverError
from edgewalk.geometry import Point2
from edgewalk.simplex import (
    _PIVOT_EPS,
    BoundedLP,
    SimplexResult,
    _validate_cost,
    _validate_program,
    _validate_rhs,
    solve_bounded_lp,
)
from edgewalk.walk import EdgeConfig, Termination, run_edge


class _Tableau:
    """Current basic solution: values, basis membership, nonbasic bounds."""

    def __init__(self, A, b, lo, hi, basis, x):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.basis = basis
        self.x = x
        self.in_basis = np.zeros(A.shape[1], dtype=bool)
        self.in_basis[basis] = True

    def refresh_basic_values(self):
        """Recompute basic values from the nonbasic bounds exactly."""
        nb = ~self.in_basis
        rhs = self.b - self.A[:, nb] @ self.x[nb]
        self.x[self.basis] = np.linalg.solve(self.A[:, self.basis], rhs)


def _iterate(t: _Tableau, c: np.ndarray, tol: float, max_iter: int, ties: list) -> int:
    """Pivot until optimal; returns iterations used.

    Appends to ties each iteration whose bound-flip test compared a step
    and a span equal to within rounding: there the branch taken depends on
    the last bits of the dense solves, not on the program.
    """
    m, n = t.A.shape
    for it in range(max_iter):
        B = t.A[:, t.basis]
        y = np.linalg.solve(B.T, c[t.basis])
        reduced = c - t.A.T @ y
        entering = -1
        direction = 0.0
        for j in range(n):
            if t.in_basis[j] or t.hi[j] - t.lo[j] <= 0.0:
                continue
            at_lo = abs(t.x[j] - t.lo[j]) <= abs(t.x[j] - t.hi[j])
            if at_lo and reduced[j] < -tol:
                entering, direction = j, 1.0
                break
            if not at_lo and reduced[j] > tol:
                entering, direction = j, -1.0
                break
        if entering < 0:
            return it
        w = np.linalg.solve(B, t.A[:, entering])
        step = np.inf
        leaving = -1
        for k in range(m):
            i = t.basis[k]
            rate = direction * w[k]
            if rate > _PIVOT_EPS:
                limit = (t.x[i] - t.lo[i]) / rate
            elif rate < -_PIVOT_EPS:
                if not np.isfinite(t.hi[i]):
                    continue
                limit = (t.hi[i] - t.x[i]) / -rate
            else:
                continue
            if limit < step - _PIVOT_EPS or (
                limit < step + _PIVOT_EPS
                and (leaving < 0 or i < t.basis[leaving])
            ):
                step = limit
                leaving = k
        span = t.hi[entering] - t.lo[entering]
        if math.isfinite(span) and abs(span - step) <= 1e-9 * max(1.0, span):
            ties.append(it)
        if span < step:
            t.x[entering] = (
                t.hi[entering] if direction > 0 else t.lo[entering]
            )
            t.refresh_basic_values()
            continue
        if not np.isfinite(step):
            return -1
        hit = t.basis[leaving]
        t.x[hit] = t.lo[hit] if direction * w[leaving] > 0 else t.hi[hit]
        t.x[entering] += direction * step
        t.in_basis[hit] = False
        t.in_basis[entering] = True
        t.basis[leaving] = entering
        t.refresh_basic_values()
    raise SolverError(f"simplex did not converge within {max_iter} pivots")


def seed_solve_bounded_lp(c, A, b, lo, hi, ties, tol=1e-7, max_iter=10000):
    """Minimize c @ x subject to A @ x == b and lo <= x <= hi."""
    A, lo, hi = _validate_program(A, lo, hi)
    m, n = A.shape
    c, b = _validate_cost(c, n), _validate_rhs(b, m)

    x0 = lo.copy()
    residual = b - A @ x0
    signs = np.where(residual < 0.0, -1.0, 1.0)
    A1 = np.hstack([A * signs[:, None], np.eye(m)])
    b1 = b * signs
    lo1 = np.concatenate([lo, np.zeros(m)])
    hi1 = np.concatenate([hi, np.full(m, np.inf)])
    x1 = np.concatenate([x0, np.abs(residual)])
    basis = list(range(n, n + m))
    t = _Tableau(A1, b1, lo1, hi1, basis, x1)

    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    used = _iterate(t, c1, tol, max_iter, ties)
    art_sum = float(t.x[n:].sum())
    if art_sum > tol:
        return SimplexResult("infeasible", t.x[:n].copy(), art_sum, used)

    t.hi[n:] = 0.0
    t.x[n:] = 0.0
    t.refresh_basic_values()
    c2 = np.concatenate([c, np.zeros(m)])
    used2 = _iterate(t, c2, tol, max_iter - used, ties)
    if used2 == -1:
        return SimplexResult("unbounded", t.x[:n].copy(), -np.inf, used)
    x = t.x[:n].copy()
    return SimplexResult("optimal", x, float(c @ x), used + used2)


def assert_same_solve(c, A, b, lo, hi, tied_path_allowed=False):
    """Both solvers agree on status, pivots and objective; returns the status.

    When the reference path met no rounding tie (see _iterate), x and the
    objective also match bit for bit: the same path ends in the same basis
    and both solvers take x from the same dense solve of it.  With
    tied_path_allowed, a program whose reference path met a tie need not
    take the same number of pivots.
    """
    ties = []
    want = seed_solve_bounded_lp(c, A, b, lo, hi, ties)
    got = solve_bounded_lp(c, A, b, lo, hi)
    assert got.status == want.status
    if math.isinf(want.objective):
        assert got.objective == want.objective
    else:
        assert got.objective == pytest.approx(want.objective, rel=0.0, abs=1e-9)
    if not (ties and tied_path_allowed):
        assert got.iterations == want.iterations
    if not ties:
        assert np.array_equal(got.x, want.x)
        assert got.objective == want.objective
    return got.status


LP = build_feasibility_lp(default_network())
DOMAIN = default_network().slot_domain()


def assert_same_label(p):
    """Same phase-one verdict, and the same least-cost dispatch."""
    b = LP.rhs(p)
    status = assert_same_solve(np.zeros(LP.program.A.shape[1]), LP.program.A, b, LP.program.lo, LP.program.hi)
    assert_same_solve(LP.cost, LP.program.A, b, LP.program.lo, LP.program.hi)
    return status != "infeasible"


def test_study_queries_match_seed_solver(record_queries):
    c = make_dcopf_classifier(default_network())
    log = record_queries(c)
    est = run_edge(
        c,
        EdgeConfig(
            epsilon=0.1,
            seed_interior=Point2(0.4, 4.74),
            seed_exterior=Point2(10.0, 7.0),
        ),
    )
    assert est.termination is Termination.CLOSED_LOOP
    assert len(log) == 281
    for p, label in log:
        assert assert_same_label((p[0], p[1])) == bool(label)


def test_slot_grid_matches_seed_solver():
    xs = np.linspace(DOMAIN.x_min, DOMAIN.x_max, 41)
    ys = np.linspace(DOMAIN.y_min, DOMAIN.y_max, 29)
    labels = [assert_same_label((float(x), float(y))) for x in xs for y in ys]
    assert 0 < sum(labels) < len(labels)


def test_tie_line_keeps_labels_and_pivot_counts():
    # Along p1 + p2 = 3.1 the reference's bound-flip test meets a step
    # equal to the entering span; either branch it takes leads to the
    # same verdict in the same number of pivots.
    tied = 0
    for p1 in np.linspace(0.0, 3.1, 63):
        p = (float(p1), 3.1 - float(p1))
        ties = []
        seed_solve_bounded_lp(np.zeros(LP.program.A.shape[1]), LP.program.A, LP.rhs(p), LP.program.lo, LP.program.hi, ties)
        tied += bool(ties)
        assert assert_same_label(p)
    assert tied > 0


@functools.cache
def _bisected_pairs():
    """100 pairs (a, b) with different cold labels, bisected to 1e-9 apart."""
    rng = np.random.default_rng(2718)
    pairs = []
    while len(pairs) < 100:
        a = (rng.uniform(DOMAIN.x_min, DOMAIN.x_max), rng.uniform(DOMAIN.y_min, DOMAIN.y_max))
        b = (rng.uniform(DOMAIN.x_min, DOMAIN.x_max), rng.uniform(DOMAIN.y_min, DOMAIN.y_max))
        inside = lp_feasible(LP, a)
        if inside == lp_feasible(LP, b):
            continue
        while math.dist(a, b) > 1e-9:
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            if lp_feasible(LP, mid) == inside:
                a = mid
            else:
                b = mid
        pairs.append((a, b))
    return pairs


def test_points_bisected_onto_the_boundary_match_seed_solver():
    for a, b in _bisected_pairs():
        inside = lp_feasible(LP, a)
        assert assert_same_label(a) == inside
        assert assert_same_label(b) != inside


@st.composite
def bounded_lps(draw):
    """Small programs with the awkward structure the network LP can show.

    Small integer data makes degenerate vertices and ratio-test ties
    common.  Rows may be duplicated, with the same or a shifted right
    side; columns may be fixed (lo == hi) or have no upper bound, and
    costs may pull along an unbounded ray.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    small = st.integers(-3, 3).map(float)
    A = np.array(draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=m, max_size=m)))
    lo = np.array(draw(st.lists(small, min_size=n, max_size=n)))
    spans = draw(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, math.inf]), min_size=n, max_size=n)
    )
    hi = lo + np.array(spans)
    if draw(st.booleans()):
        # a right side some point inside the bounds meets
        frac = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n)))
        x = lo + np.where(np.isfinite(hi), hi - lo, 3.0) * frac
        b = A @ x
    else:
        b = np.array(draw(st.lists(small, min_size=m, max_size=m)))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, m - 1))
        A = np.vstack([A, A[k]])
        b = np.append(b, b[k] + draw(st.sampled_from([0.0, 0.0, 1.0])))
    c = np.array(draw(st.lists(small, min_size=n, max_size=n)))
    return c, A, b, lo, hi


@settings(max_examples=400, deadline=None)
@given(bounded_lps())
def test_small_programs_match_seed_solver(lp):
    c, A, b, lo, hi = lp
    assert_same_solve(np.zeros_like(c), A, b, lo, hi, tied_path_allowed=True)
    assert_same_solve(c, A, b, lo, hi, tied_path_allowed=True)


@pytest.mark.parametrize(
    "c, A, b, lo, hi, status",
    [
        ([-1.0, 0.0], [[1.0, -1.0]], [0.0], [0.0, 0.0], [math.inf, math.inf], "unbounded"),
        ([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], [0.0, 0.0], [4.0, 4.0], "infeasible"),
        ([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [3.0, 3.0], [1.0, 0.0], [1.0, 4.0], "optimal"),
        ([1.0, -1.0], [[1.0, 1.0]], [9.0], [1.0, 0.0], [1.0, 4.0], "infeasible"),
    ],
    ids=["unbounded-ray", "duplicated-row-shifted", "duplicated-row-fixed-column", "fixed-column-blocks"],
)
def test_status_cases_match_seed_solver(c, A, b, lo, hi, status):
    assert assert_same_solve(c, A, b, lo, hi) == status


def test_rounding_tie_keeps_status_and_objective():
    # The step to the first blocking row equals the entering span exactly,
    # so each solver's bound-flip test is decided by the rounding of its
    # own arithmetic; the pivot counts may differ, the answer may not.
    c = np.zeros(3)
    A = np.array([[0.0, 0.0, 2.0], [-3.0, 0.0, 1.0]])
    b = np.array([1.0, -5.5])
    lo = np.array([1.0, 0.0, 0.0])
    hi = np.array([2.0, 0.0, 0.5])
    ties = []
    seed_solve_bounded_lp(c, A, b, lo, hi, ties)
    assert ties
    assert assert_same_solve(c, A, b, lo, hi, tied_path_allowed=True) == "optimal"


# One prepared program serves every query of the study; each of its solves
# must equal a one-shot solve on fresh arrays, whatever came before it.


def _fresh_solve(c, p):
    b = LP.rhs(p)
    return solve_bounded_lp(np.array(c), LP.program.A.copy(), b.copy(), LP.program.lo.copy(), LP.program.hi.copy())


def _assert_identical(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.objective == want.objective
    assert np.array_equal(got.x, want.x)


def _study_points(record_queries):
    c = make_dcopf_classifier(default_network())
    log = record_queries(c)
    run_edge(
        c,
        EdgeConfig(
            epsilon=0.1,
            seed_interior=Point2(0.4, 4.74),
            seed_exterior=Point2(10.0, 7.0),
        ),
    )
    walk = [(p[0], p[1]) for p, _ in log]
    xs = np.linspace(DOMAIN.x_min, DOMAIN.x_max, 41)
    ys = np.linspace(DOMAIN.y_min, DOMAIN.y_max, 29)
    grid = [(float(x), float(y)) for x in xs for y in ys]
    tie = [(float(p1), 3.1 - float(p1)) for p1 in np.linspace(0.0, 3.1, 63)]
    assert (len(walk), len(grid), len(tie)) == (281, 1189, 63)
    return walk + grid + tie


def test_prepared_program_matches_one_shot_solves_in_any_order(record_queries):
    points = _study_points(record_queries)
    zero = np.zeros(LP.program.A.shape[1])
    want = {p: _fresh_solve(zero, p) for p in points}
    shuffled = list(points)
    np.random.default_rng(11).shuffle(shuffled)
    program = build_feasibility_lp(default_network()).program
    for order in (points, shuffled):
        for p in order:
            got = program.solve(zero, LP.rhs(p))
            _assert_identical(got, want[p])
            assert program.feasible(LP.rhs(p)) == (want[p].status != "infeasible")
    assert {r.status for r in want.values()} == {"optimal", "infeasible"}


def test_interleaved_cost_rows_leave_later_solves_unchanged():
    rng = np.random.default_rng(5)
    points = [
        (float(rng.uniform(DOMAIN.x_min, DOMAIN.x_max)), float(rng.uniform(DOMAIN.y_min, DOMAIN.y_max)))
        for _ in range(150)
    ]
    # the study's phase-one vertex is already cheapest under the dispatch
    # costs; reversed generator costs make phase two pivot
    reversed_costs = LP.cost.copy()
    reversed_costs[:3] = LP.cost[2::-1]
    costs = {"zero": np.zeros(LP.program.A.shape[1]), "dispatch": LP.cost, "reversed": reversed_costs}
    want = {(p, k): _fresh_solve(c, p) for p in points for k, c in costs.items()}
    calls = list(want)
    program = LP.program
    for _ in range(2):
        rng.shuffle(calls)
        for p, k in calls:
            _assert_identical(program.solve(costs[k], LP.rhs(p)), want[p, k])
    assert any(want[p, "reversed"].iterations > want[p, "zero"].iterations for p in points)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda b: np.where(np.arange(len(b)) == 3, np.nan, b),
        lambda b: np.where(np.arange(len(b)) == 0, np.inf, b),
        lambda b: b[:-1],
        lambda b: b[:, None],
        lambda b: np.concatenate([b, [0.0]]),
        lambda b: 1.0,
    ],
    ids=["nan", "inf", "short", "column", "long", "scalar"],
)
def test_prepared_program_rejects_bad_right_sides(spoil):
    program = LP.program
    good = LP.rhs((0.4, 4.74))
    with pytest.raises(InputError):
        program.solve(LP.cost, spoil(good))
    with pytest.raises(InputError):
        program.feasible(spoil(good))
    _assert_identical(program.solve(LP.cost, good), _fresh_solve(LP.cost, (0.4, 4.74)))


def test_prepared_program_keeps_read_only_copies():
    A, lo, hi = LP.program.A.copy(), LP.program.lo.copy(), LP.program.hi.copy()
    program = BoundedLP(A, lo, hi)
    b = LP.rhs((0.6, 0.51))
    want = program.solve(LP.cost, b)
    A[:] = 0.0
    lo[:] = -1.0
    hi[:] = 1.0
    _assert_identical(program.solve(LP.cost, b), want)
    for stored in (program.A, program.lo, program.hi):
        with pytest.raises(ValueError):
            stored[0] = 0.0
    with pytest.raises(InputError):
        program.solve(np.zeros(3), b)


# The classifier keeps the feasible bases its solves end on and labels a
# point inside one of their regions 1 without a solve; its labels must be
# the cold solver's whatever the order of the queries.


def test_kept_bases_give_the_cold_labels_in_any_order(monkeypatch):
    xs = np.linspace(DOMAIN.x_min, DOMAIN.x_max, 201)
    ys = np.linspace(DOMAIN.y_min, DOMAIN.y_max, 141)
    grid = [(float(x), float(y)) for x in xs for y in ys]
    boundary = [p for pair in _bisected_pairs() for p in pair]
    # along p1 + p2 = 3.1 the final basis depends on last-bit rounding
    tie = [(float(p1), 3.1 - float(p1)) for p1 in np.linspace(0.0, 3.1, 63)]
    points = grid + boundary + tie
    want = [int(lp_feasible(LP, p)) for p in points]
    assert 0 < sum(want) < len(points)
    order = np.random.default_rng(3).permutation(len(points))
    shuffled = [points[i] for i in order]
    solves = []
    phase_one = BoundedLP.phase_one

    def counted(self, b):
        solves.append(None)
        return phase_one(self, b)

    monkeypatch.setattr(BoundedLP, "phase_one", counted)
    for pts, labels in ((points, want), (shuffled, [want[i] for i in order])):
        solves.clear()
        classifier = make_dcopf_classifier(default_network())
        for p, label in zip(pts, labels):
            before = len(solves)
            assert classifier.query(p) == label, p
            # every 0 comes from a solve
            assert label or len(solves) > before, p
        # the kept bases answered some queries without a solve
        assert len(solves) < len(pts) - 1000


@st.composite
def scaled_networks(draw):
    """The five-bus network with its loads and finite line limits scaled."""
    net = default_network()
    load_scale = draw(st.floats(0.3, 1.6))
    lines = tuple(
        ln if math.isinf(ln.limit) else dataclasses.replace(ln, limit=ln.limit * draw(st.floats(0.3, 2.0)))
        for ln in net.lines
    )
    loads = {bus: d * load_scale for bus, d in net.loads.items()}
    return dataclasses.replace(net, lines=lines, loads=loads)


# fractions of the slot domain; lattice ones land on region edges and ties
_fractions = st.one_of(st.floats(0.0, 1.0), st.integers(0, 32).map(lambda k: k / 32))


@settings(max_examples=40, deadline=None)
@given(scaled_networks(), st.lists(st.tuples(_fractions, _fractions), min_size=1, max_size=60))
def test_kept_bases_give_the_cold_labels_on_scaled_networks(net, fractions):
    d = net.slot_domain()
    points = [
        (d.x_min + u * (d.x_max - d.x_min), d.y_min + v * (d.y_max - d.y_min))
        for u, v in fractions
    ]
    lp = build_feasibility_lp(net)
    classifier = make_dcopf_classifier(net)
    assert [classifier.query(p) for p in points] == [int(lp_feasible(lp, p)) for p in points]
