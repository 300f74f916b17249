"""Which points are Point2: the ones an estimate keeps.

The geometry builds plain (x, y) tuples, the walk makes a point a Point2
right before it queries it, and the grid queries plain tuples and keeps
Point2 transition points.  Under `run --log-queries` each estimate point
is therefore the very object that was logged, so the CLI formats it once.
"""

import pytest

from edgewalk import cli
from edgewalk.classifier import make_classifier
from edgewalk.cli import main
from edgewalk.geometry import (
    Domain,
    Point2,
    circle_circle_intersection,
    midpoint,
    perimeter_circle_intersection,
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
    assert any(on_rim(p) for p in est.inner)
    assert all(type(p) is Point2 for p in est.inner + est.outer)
    # the walk hands the oracle the Point2 it then keeps
    assert all(type(p) is Point2 for p, _ in log)


def test_geometry_returns_plain_tuples():
    a, b = Point2(0.0, 0.0), Point2(1.0, 0.0)
    pts = circle_circle_intersection(a, b, 1.0, 1e-12)
    assert len(pts) == 2 and all(type(p) is tuple for p in pts)
    assert type(select_forward(a, b, pts, 1e-12)) is tuple
    tangent = circle_circle_intersection(a, Point2(2.0, 0.0), 1.0, 1e-9)
    assert tangent == [(1.0, 0.0)] and type(tangent[0]) is tuple
    assert type(midpoint(a, b)) is tuple
    hits = perimeter_circle_intersection(SQUARE, Point2(0.9, 0.0), 0.5)
    assert len(hits) == 2
    assert all(type(p) is tuple for p, _ in hits)
    hits = perimeter_circle_intersection(SQUARE, Point2(0.0, 0.0), 1.2)
    assert len(hits) == 8
    assert all(type(p) is tuple for p, _ in hits)


def test_grid_queries_plain_tuples_and_keeps_point2(record_queries):
    c = clipped_disc()
    log = record_queries(c)
    g = run_grid(c, 0.1)
    assert len(log) == g.total_queries == 21 * 21
    assert all(type(p) is tuple for p, _ in log)
    assert g.inner and g.outer
    assert all(type(p) is Point2 for p in g.inner + g.outer)


@pytest.mark.parametrize(
    "extra",
    [[], ["--seed-in", "0.9,0", "--seed-out=-0.9,0"]],
    ids=["seed-scan", "explicit-seeds"],
)
def test_logged_run_formats_each_estimate_point_once(tmp_path, monkeypatch, extra):
    monkeypatch.setattr(cli, "_make_classifier", lambda spec: clipped_disc())
    written = []
    write = cli._write_logged

    def write_kept(out, estimate, points, labels):
        written.append((estimate, points))
        write(out, estimate, points, labels)

    monkeypatch.setattr(cli, "_write_logged", write_kept)
    argv = ["run", "disc", "--epsilon", "0.1", "--log-queries", "--out", str(tmp_path)]
    assert main(argv + extra) == 0
    ((est, log),) = written
    logged = {id(p) for p in log}
    assert len(log) == est.total_queries
    assert all(id(p) in logged for p in est.inner + est.outer)
    # the writer's pairing: the bracket pair among the seed and bisection
    # probes, then each later query is the next estimate point itself
    n_pre = est.seed_queries + est.bisection_queries
    assert any(p is est.inner[0] for p in log[:n_pre])
    assert any(p is est.outer[0] for p in log[:n_pre])
    after_pair = [p for p, _ in est.points_in_order()[2:]]
    assert len(after_pair) == len(log) - n_pre
    assert all(p is q for p, q in zip(after_pair, log[n_pre:]))
