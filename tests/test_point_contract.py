"""Which points are Point2: only the ones inner and outer hand out.

Every other point is a plain (x, y) tuple: the geometry's, a domain's
corners and centre, and so every seed-scan probe, and the run queries
each as it is.  A finished estimate packs every query after the seed
scan into one float array, xy, beside its labels, so it holds no Python
object per point for the cyclic GC to traverse; inner and outer build
Point2 lists from it on first use.  The grid queries plain tuples and
keeps its transition points as (n, 2) float arrays.  Each logged point
therefore equals the point the oracle was handed bit for bit, and the
seed scan's probes regenerate the same way.  Together they hold every
query of the run in order, which `run --log-queries` writes.
"""

from array import array

import numpy as np
import pytest

from edgewalk.classifier import make_classifier
from edgewalk.geometry import (
    Domain,
    Point2,
    circle_circle_intersection,
    midpoint,
    perimeter_circle_intersection,
    rim_step,
    select_forward,
)
from edgewalk.grid import run_grid
from edgewalk.walk import EdgeConfig, run_edge

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


def clipped_disc():
    """A disc of radius 0.6 centred on the right side: its walk steps the rim."""
    return make_classifier(
        lambda x, y: (x - 1.0) ** 2 + y * y, 0.36, SQUARE, "clipped-disc"
    )


def on_rim(p):
    return abs(p[0] - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "seeds",
    [{}, {"seed_interior": (0.9, 0.0), "seed_exterior": (-0.9, 0.0)}],
    ids=["seed-scan", "explicit-seeds"],
)
def test_every_estimate_point_is_a_point2(seeds, record_queries):
    c = clipped_disc()
    log = record_queries(c)
    est = run_edge(c, EdgeConfig(epsilon=0.1, **seeds))
    assert est.termination.value == "closed_loop"
    assert est.bisection_queries > 0
    # the finished estimate packs its log and builds inner and outer on use
    assert type(est.xy) is array and est.xy.typecode == "d"
    assert "inner" not in vars(est) and "outer" not in vars(est)
    assert any(on_rim(p) for p in est.inner)
    assert all(type(p) is Point2 for p in est.inner + est.outer)
    # the scan, the seeds, the bisection and the walk hand the oracle plain tuples
    n_scan = 0 if est.scan_label is None else est.seed_queries
    assert len(log) - n_scan > est.walk_queries > 0
    assert all(type(p) is tuple for p, _ in log)
    assert all(type(p) is tuple for p in est.pair)


def test_domain_corners_and_center_are_plain_tuples():
    corners = SQUARE.corners()
    assert corners == ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
    assert all(type(p) is tuple for p in corners)
    assert type(SQUARE.center) is tuple and SQUARE.center == (0.0, 0.0)
    assert all(type(edge.start) is tuple for edge in SQUARE.edges)


def test_geometry_returns_plain_tuples():
    a, b = Point2(0.0, 0.0), Point2(1.0, 0.0)
    forward = circle_circle_intersection(a, b, 1.0, 1e-12)
    assert type(forward) is tuple
    assert type(select_forward(a, b, [forward], 1e-12)) is tuple
    assert type(midpoint(a, b)) is tuple
    hits = perimeter_circle_intersection(SQUARE, Point2(0.9, 0.0), 0.5)
    assert len(hits) == 2
    assert all(type(p) is tuple for p, _ in hits)
    hits = perimeter_circle_intersection(SQUARE, Point2(0.0, 0.0), 1.2)
    assert len(hits) == 8
    assert all(type(p) is tuple for p, _ in hits)
    step = rim_step(SQUARE, Point2(0.0, -1.0), 1.0, 0.5)
    assert step == ((0.5, -1.0), 1.5, 0.5) and type(step[0]) is tuple


def test_grid_queries_plain_tuples_and_keeps_float_arrays(record_queries):
    c = clipped_disc()
    log = record_queries(c)
    g = run_grid(c, 0.1)
    assert len(log) == g.total_queries == 21 * 21
    assert all(type(p) is tuple for p, _ in log)
    assert len(g.inner) and len(g.outer)
    for side in (g.inner, g.outer):
        assert type(side) is np.ndarray
        assert side.dtype == np.float64 and side.ndim == 2 and side.shape[1] == 2
    # each kept node is a queried node, bit for bit
    queried = {(x.hex(), y.hex()) for (x, y), _ in log}
    kept = {(x.hex(), y.hex()) for x, y in np.vstack([g.inner, g.outer]).tolist()}
    assert kept <= queried


@pytest.mark.parametrize(
    "config",
    [
        EdgeConfig(epsilon=0.1),
        EdgeConfig(epsilon=0.1, seed_interior=(0.9, 0.0), seed_exterior=(-0.9, 0.0)),
        EdgeConfig(epsilon=0.1, max_queries=33),
    ],
    ids=["seed-scan", "explicit-seeds", "budget-death-on-the-rim"],
)
def test_estimate_holds_every_query_in_order(config, record_queries, bits):
    c = clipped_disc()
    log = record_queries(c)
    est = run_edge(c, config)
    ending = "budget_exhausted" if config.max_queries else "closed_loop"
    assert est.termination.value == ending
    assert len(log) == est.total_queries
    n_scan = 0 if est.scan_label is None else est.seed_queries
    # the log packs every query after the scan, and query_log gives them
    # back after the regenerated scan: every point and label, bit for bit
    assert len(est.xy) == 2 * len(est.labels) == 2 * (len(log) - n_scan)
    assert bits(est.query_log(c.domain)) == bits(log)
    # the bracket pair was queried before the walk
    n_pre = est.seed_queries + est.bisection_queries
    assert est.pair[0] in [p for p, _ in log[:n_pre]]
    assert est.pair[1] in [p for p, _ in log[:n_pre]]
    # each later query is the next estimate point after the pair, bit for bit
    after_pair = est.points_in_order()[2:]
    assert len(after_pair) == len(log) - n_pre > 0
    assert bits(after_pair) == bits(log[n_pre:])
