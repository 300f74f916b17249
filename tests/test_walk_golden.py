"""Walk output pinned byte for byte.

Each case hashes the points.csv text that `edgewalk run` would write for
the estimate.  The hashes were recorded before the walk's geometry, and
for the five-bus study the simplex oracle, were made cheaper; any change
to a walk point, its label or its order shows here.  A deliberate change
of walk output must re-record them and say so.
"""

import hashlib

import pytest

from edgewalk.classifier import make_classifier, make_test_classifier
from edgewalk.cli import _points_csv
from edgewalk.dcopf import default_network, make_dcopf_classifier
from edgewalk.geometry import Domain, Point2
from edgewalk.walk import EdgeConfig, Termination, run_edge


def _rosenbrock():
    return make_test_classifier("rosenbrock"), EdgeConfig(epsilon=0.05)


def _lower_half_strip():
    # the TestDomainClippedWalk case: three rim edges and two corners
    c = make_classifier(lambda x, y: y, 0.5, Domain(0.0, 1.0, 0.0, 1.0), "half")
    cfg = EdgeConfig(
        epsilon=0.05,
        seed_interior=Point2(0.5, 0.25),
        seed_exterior=Point2(0.5, 0.75),
    )
    return c, cfg


def _rim_heavy_half_plane():
    # starts on the rim and misses its loop closure, so it runs the budget out
    c = make_classifier(
        lambda x, y: -0.44 * x + 1.17 * y, -1.109, Domain(-1.0, 1.0, -1.0, 1.0)
    )
    return c, EdgeConfig(epsilon=0.03)


def _five_bus_study():
    # the README study: every label is a phase-one simplex verdict
    cfg = EdgeConfig(
        epsilon=0.1,
        seed_interior=Point2(0.4, 4.74),
        seed_exterior=Point2(10.0, 7.0),
    )
    return make_dcopf_classifier(default_network()), cfg


@pytest.mark.parametrize(
    "build, termination, queries, digest",
    [
        (
            _rosenbrock,
            Termination.CLOSED_LOOP,
            1952,
            "c99c14ffb09fb673e6b6a7529c466b4a48ae4b382f849ec3c5c3755626c2e9b6",
        ),
        (
            _lower_half_strip,
            Termination.CLOSED_LOOP,
            89,
            "e5edabdd3d48bfe15fabd13271bb714148fefbe0b5267db9ffcfa8e7d0045366",
        ),
        (
            _rim_heavy_half_plane,
            Termination.BUDGET_EXHAUSTED,
            2667,
            "0b77d801335add379fe57a00d014b23bf39fbbf77c97f904f98ba0da9f2d136a",
        ),
        (
            _five_bus_study,
            Termination.CLOSED_LOOP,
            281,
            "ca9d17c53b6993a47ab008f90f36f1ec61d11a6e8cff64e639f42d97a3f6752b",
        ),
    ],
    ids=["rosenbrock", "lower-half-strip", "rim-heavy-half-plane", "five-bus-study"],
)
def test_points_csv_is_unchanged(build, termination, queries, digest):
    classifier, config = build()
    est = run_edge(classifier, config)
    assert est.termination is termination
    assert est.total_queries == queries
    text = _points_csv(est)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
