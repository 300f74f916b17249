"""Acceptance gate: the numeric commitments this package makes.

One test per commitment, sharing a module-level benchmark pass so the
expensive runs happen once.  Nominal query counts carry a 15 percent
band, distance scores a 0.02 band, grid costs are exact by construction,
and the five-bus study counts carry a 20 percent band.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import Delaunay

from edgewalk.classifier import CANONICAL_SPECS, make_classifier, make_test_classifier
from edgewalk.cli import main as cli_main
from edgewalk.dcopf import build_feasibility_lp, default_network, make_dcopf_classifier, lp_feasible
from edgewalk.geometry import Domain, Point2
from edgewalk.metrics import (
    asd_to_reference,
    average_symmetric_distance,
    coverage_within,
    reference_from_scalar,
)
from edgewalk.grid import run_grid
from edgewalk.walk import EdgeConfig, Termination, run_edge

CASES = [
    ("rosenbrock", 0.1),
    ("rosenbrock", 0.05),
    ("goldstein_price", 0.1),
    ("goldstein_price", 0.05),
    ("beale", 0.1),
    ("beale", 0.05),
]

EXACT_GRID_QUERIES = {
    ("rosenbrock", 0.1): 14641,
    ("rosenbrock", 0.05): 58081,
    ("goldstein_price", 0.1): 23711,
    ("goldstein_price", 0.05): 94221,
    ("beale", 0.1): 17061,
    ("beale", 0.05): 67721,
}

NOMINAL_EDGE_QUERIES = {
    ("rosenbrock", 0.1): 973,
    ("rosenbrock", 0.05): 1948,
    ("goldstein_price", 0.1): 1101,
    ("goldstein_price", 0.05): 2262,
    ("beale", 0.1): 909,
    ("beale", 0.05): 1903,
}

NOMINAL_EDGE_ASD = {
    ("rosenbrock", 0.1): 0.103,
    ("rosenbrock", 0.05): 0.052,
    ("goldstein_price", 0.1): 0.112,
    ("goldstein_price", 0.05): 0.052,
    ("beale", 0.1): 0.116,
    ("beale", 0.05): 0.055,
}

NOMINAL_GRID_ASD = {
    ("rosenbrock", 0.1): 0.112,
    ("rosenbrock", 0.05): 0.051,
    ("goldstein_price", 0.1): 0.111,
    ("goldstein_price", 0.05): 0.051,
    ("beale", 0.1): 0.112,
    ("beale", 0.05): 0.054,
}

NOMINAL_STUDY_QUERIES = {0.1: 282, 0.01: 2866}
STUDY_SEED_IN = Point2(0.4, 4.74)
STUDY_SEED_OUT = Point2(10.0, 7.0)


@pytest.fixture(scope="module")
def bench():
    """Timed walk and grid runs plus references for every benchmark cell."""
    out = {}
    for name, eps in CASES:
        c_edge = make_test_classifier(name)
        t0 = time.perf_counter()
        est = run_edge(c_edge, EdgeConfig(epsilon=eps))
        edge_wall = time.perf_counter() - t0

        c_grid = make_test_classifier(name)
        t0 = time.perf_counter()
        grid = run_grid(c_grid, eps)
        grid_wall = time.perf_counter() - t0

        spec = CANONICAL_SPECS[name]
        cell = eps / 10.0
        ref = reference_from_scalar(spec.fn, spec.threshold, spec.domain, cell)
        out[(name, eps)] = {
            "est": est,
            "grid": grid,
            "edge_wall": edge_wall,
            "grid_wall": grid_wall,
            "ref": ref,
            "cell": cell,
        }
    return out


def test_grid_query_counts_are_exact(bench):
    for key, want in EXACT_GRID_QUERIES.items():
        got = bench[key]["grid"].total_queries
        assert got == want, f"{key[0]} eps={key[1]}: grid used {got}, expected {want}"


def test_walk_query_counts_within_fifteen_percent(bench):
    for key, nominal in NOMINAL_EDGE_QUERIES.items():
        got = bench[key]["est"].total_queries
        lo, hi = 0.85 * nominal, 1.15 * nominal
        assert lo <= got <= hi, (
            f"{key[0]} eps={key[1]}: walk used {got}, outside [{lo:.0f}, {hi:.0f}]"
        )


def test_distance_scores_within_two_hundredths(bench):
    for key in CASES:
        cell = bench[key]
        eps = key[1]
        est, grid, ref = cell["est"], cell["grid"], cell["ref"]
        edge_asd = asd_to_reference(est.inner, est.outer, ref).total
        grid_asd = asd_to_reference(grid.inner, grid.outer, ref).total
        assert abs(edge_asd - NOMINAL_EDGE_ASD[key]) <= 0.02, (
            f"{key[0]} eps={eps}: walk score {edge_asd:.4f} "
            f"vs nominal {NOMINAL_EDGE_ASD[key]}"
        )
        assert abs(grid_asd - NOMINAL_GRID_ASD[key]) <= 0.02, (
            f"{key[0]} eps={eps}: grid score {grid_asd:.4f} "
            f"vs nominal {NOMINAL_GRID_ASD[key]}"
        )


def test_every_walk_point_near_region_outline(bench):
    # the region's outline is the decision boundary plus the rim stretches
    # inside the region; the points the walk steps along the rim sit on the
    # latter, so they are checked to lie on the rim instead
    for key in CASES:
        cell = bench[key]
        est = cell["est"]
        dom = CANONICAL_SPECS[key[0]].domain
        tol = dom.geom_tol

        def on_rim(p):
            return min(
                p.x - dom.x_min, dom.x_max - p.x, p.y - dom.y_min, dom.y_max - p.y
            ) <= tol

        off_rim = est.outer + [p for p in est.inner if not on_rim(p)]
        cov = coverage_within(off_rim, cell["ref"], key[1] + cell["cell"])
        assert cov.fraction_within == 1.0, (
            f"{key[0]} eps={key[1]}: {cov.n_outside} points farther than "
            f"epsilon+cell from the decision boundary (worst {cov.max_distance:.4f})"
        )


def test_circle_walk_is_accurate_and_fully_efficient(record_queries, bits):
    eps = 0.05
    c = make_classifier(
        lambda x, y: x * x + y * y, 1.0, Domain(-2.0, 2.0, -2.0, 2.0), "circle"
    )
    asked = record_queries(c)
    est = run_edge(c, EdgeConfig(epsilon=eps))
    assert est.termination is Termination.CLOSED_LOOP
    for p in est.inner + est.outer:
        assert abs(math.hypot(p.x, p.y) - 1.0) <= eps + 1e-12
    # every query after the seeds and the bisection is an estimate point
    walk_queries = c.query_count - est.seed_queries - est.bisection_queries
    kept = est.points_in_order()[2:]
    assert len(kept) == walk_queries, (
        f"{walk_queries} walk queries kept only {len(kept)} points"
    )
    assert bits(kept) == bits(asked[-walk_queries:])


def test_bisection_query_count_follows_halving_law():
    rng = np.random.default_rng(20260823)
    dom = Domain(0.0, 1.0, 0.0, 1.0)
    eps = 1e-3
    checked = 0
    while checked < 100:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.3, 0.7)
        nx, ny = math.cos(theta), math.sin(theta)

        def field(x, y):
            return nx * x + ny * y - r

        c = make_classifier(field, 0.0, dom, "line")
        a = Point2(rng.uniform(0, 1), rng.uniform(0, 1))
        b = Point2(rng.uniform(0, 1), rng.uniform(0, 1))
        if c.query(a) == c.query(b):
            continue
        if c.query(a) == 0:
            a, b = b, a
        c.reset()
        d0 = math.hypot(a.x - b.x, a.y - b.y)
        want = 0 if d0 < eps else math.ceil(math.log2(d0 / eps))
        # the two seed checks and the bisection use the whole budget, so the
        # walk's first query ends the run
        cfg = EdgeConfig(eps, seed_interior=a, seed_exterior=b, max_queries=2 + want)
        est = run_edge(c, cfg)
        assert est.bisection_queries == want, (
            f"pair {d0:.6f} apart at eps {eps}: {est.bisection_queries} "
            f"queries, expected {want}"
        )
        assert est.walk_queries == 0
        assert math.dist(est.inner[0], est.outer[0]) < eps
        assert field(*est.inner[0]) < 0.0 <= field(*est.outer[0])
        checked += 1


def test_symmetric_distance_matches_brute_force():
    rng = np.random.default_rng(7312)
    for _ in range(50):
        na, nb = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        a = rng.uniform(-5.0, 5.0, size=(na, 2))
        b = rng.uniform(-5.0, 5.0, size=(nb, 2))
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
        brute = (d.min(axis=1).sum() + d.min(axis=0).sum()) / (na + nb)
        fast = average_symmetric_distance(a, b)
        assert fast == pytest.approx(brute, rel=1e-12)


def test_five_bus_study_counts_and_hull_purity():
    net = default_network()
    c = make_dcopf_classifier(net)
    assert c.query(STUDY_SEED_IN) == 1
    assert c.query(STUDY_SEED_OUT) == 0

    for eps, nominal in NOMINAL_STUDY_QUERIES.items():
        c = make_dcopf_classifier(net)
        est = run_edge(
            c,
            EdgeConfig(
                epsilon=eps,
                seed_interior=STUDY_SEED_IN,
                seed_exterior=STUDY_SEED_OUT,
            ),
        )
        assert est.termination is Termination.CLOSED_LOOP
        lo, hi = 0.8 * nominal, 1.2 * nominal
        assert lo <= est.total_queries <= hi, (
            f"study eps={eps}: {est.total_queries} queries, "
            f"outside [{lo:.0f}, {hi:.0f}]"
        )
        inner = np.array([(p.x, p.y) for p in est.inner])
        outer = np.array([(p.x, p.y) for p in est.outer])
        inside = Delaunay(inner).find_simplex(outer) >= 0
        assert int(inside.sum()) == 0, (
            f"study eps={eps}: {int(inside.sum())} exterior points landed "
            "inside the hull of the interior estimate"
        )


def test_network_verdicts_match_reference_solver():
    lp = build_feasibility_lp(default_network())
    bounds = [(l, h if np.isfinite(h) else None) for l, h in zip(lp.program.lo, lp.program.hi)]
    rng = np.random.default_rng(515253)
    disagreements = 0
    for _ in range(200):
        p = (rng.uniform(0.0, 10.0), rng.uniform(0.0, 7.0))
        mine = lp_feasible(lp, p)
        ref = linprog(
            np.zeros(lp.program.A.shape[1]),
            A_eq=lp.program.A,
            b_eq=lp.rhs(p),
            bounds=bounds,
            method="highs",
        )
        assert ref.status in (0, 2)
        if mine != (ref.status == 0):
            disagreements += 1
    assert disagreements == 0, f"{disagreements} verdicts differ over 200 draws"


def test_cli_reruns_are_byte_identical(tmp_path):
    args = ["run", "rosenbrock", "--epsilon", "0.1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()


def test_walk_beats_grid_wall_clock(bench):
    for key in CASES:
        cell = bench[key]
        assert cell["edge_wall"] < cell["grid_wall"], (
            f"{key[0]} eps={key[1]}: walk {cell['edge_wall']:.3f}s "
            f"vs grid {cell['grid_wall']:.3f}s"
        )
