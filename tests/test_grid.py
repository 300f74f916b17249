import numpy as np
import pytest

from edgewalk.classifier import make_classifier, make_test_classifier
from edgewalk.cli import _make_classifier
from edgewalk.errors import InputError
from edgewalk.geometry import Domain, Point2
from edgewalk.grid import GridEstimate, grid_shape, run_grid


def test_grid_shape_canonical_domains():
    assert grid_shape(Domain(-6, 6, -2, 10), 0.1) == (121, 121)
    assert grid_shape(Domain(-6, 6, -2, 10), 0.05) == (241, 241)
    assert grid_shape(Domain(-8, 10, -7, 6), 0.1) == (181, 131)
    assert grid_shape(Domain(-8, 10, -7, 6), 0.05) == (361, 261)
    assert grid_shape(Domain(-6, 6, -7, 7), 0.1) == (121, 141)
    assert grid_shape(Domain(-6, 6, -7, 7), 0.05) == (241, 281)


def test_grid_shape_rejects_bad_epsilon():
    with pytest.raises(InputError):
        grid_shape(Domain(0, 1, 0, 1), -0.5)


def test_hand_worked_three_by_three():
    dom = Domain(0.0, 1.0, 0.0, 1.0)
    c = make_classifier(lambda x, y: x + y, 0.75, dom, "diag")
    g = run_grid(c, 0.5)
    assert (g.nx, g.ny) == (3, 3)
    assert g.total_queries == 9
    assert c.query_count == 9
    assert g.inner.tolist() == [[0.5, 0.0], [0.0, 0.5]]
    assert g.outer.tolist() == [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]


def test_queries_scan_rows_bottom_up(record_queries):
    dom = Domain(0.0, 1.0, 0.0, 1.0)
    c = make_classifier(lambda x, y: x + y, 0.75, dom, "diag")
    log = record_queries(c)
    run_grid(c, 0.5)
    seen = [p for p, _ in log]
    assert seen[:4] == [
        Point2(0.0, 0.0),
        Point2(0.5, 0.0),
        Point2(1.0, 0.0),
        Point2(0.0, 0.5),
    ]
    assert seen[-1] == Point2(1.0, 1.0)


def test_total_queries_is_grid_size():
    c = make_test_classifier("rosenbrock")
    g = run_grid(c, 0.37)
    assert g.total_queries == g.nx * g.ny
    assert c.query_count == g.total_queries


def test_transition_points_bracket_the_boundary():
    dom = Domain(-2.0, 2.0, -2.0, 2.0)
    c = make_classifier(lambda x, y: x * x + y * y, 1.0, dom, "circle")
    g = run_grid(c, 0.1)
    r_in = np.hypot(g.inner[:, 0], g.inner[:, 1])
    assert np.all(r_in < 1.0)
    assert np.all(abs(r_in - 1.0) <= 0.1 + 1e-9)
    r_out = np.hypot(g.outer[:, 0], g.outer[:, 1])
    assert np.all(r_out >= 1.0)
    assert np.all(abs(r_out - 1.0) <= 0.1 + 1e-9)


def test_rim_nodes_need_a_real_transition():
    # interior region touching the rim: rim adjacency alone must not
    # produce boundary points
    dom = Domain(0.0, 1.0, 0.0, 1.0)
    c = make_classifier(lambda x, y: y, 0.75, dom, "half")
    g = run_grid(c, 0.25)
    assert np.all(g.inner[:, 1] == 0.5)
    assert np.all(g.outer[:, 1] == 0.75)


def test_runs_are_deterministic():
    a = run_grid(make_test_classifier("beale"), 0.5)
    b = run_grid(make_test_classifier("beale"), 0.5)
    assert np.array_equal(a.inner, b.inner)
    assert np.array_equal(a.outer, b.outer)
    assert a.total_queries == b.total_queries


def _labels_by_item(c, epsilon):
    """The grid scan as first written: one Point2(...) and one array store per node."""
    domain = c.domain
    nx, ny = grid_shape(domain, epsilon)
    labels = np.zeros((ny, nx), dtype=np.int8)
    for j in range(ny):
        y = domain.y_min + j * epsilon
        for i in range(nx):
            labels[j, i] = c.query(Point2(domain.x_min + i * epsilon, y))
    return labels


def _bits(p):
    return (p[0].hex(), p[1].hex())


@pytest.mark.parametrize(
    "spec, epsilon",
    [("rosenbrock", 0.1), ("goldstein_price", 0.1), ("beale", 0.1), ("dcopf", 0.2)],
)
def test_scan_matches_item_by_item_oracle(spec, epsilon, record_queries):
    oracle_c, c = _make_classifier(spec), _make_classifier(spec)
    oracle_log, log = record_queries(oracle_c), record_queries(c)
    labels = _labels_by_item(oracle_c, epsilon)
    g = run_grid(c, epsilon)

    # same nodes, bit for bit, in the same order, with the same labels;
    # the scan hands the oracle plain (x, y) tuples
    assert [_bits(p) for p, _ in log] == [_bits(p) for p, _ in oracle_log]
    assert all(type(p) is tuple for p, _ in log)
    assert np.array_equal(np.array([lab for _, lab in log]).reshape(g.ny, g.nx), labels)
    assert g.total_queries == c.query_count == labels.size
    assert 0 < labels.sum() < labels.size
    assert len(g.inner) and len(g.outer)
