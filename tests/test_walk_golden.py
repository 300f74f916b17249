"""Walk output pinned byte for byte.

Each case hashes the points.csv text that `edgewalk run` would write for
the estimate.  The hashes were recorded before the walk's geometry, and
for the five-bus study the simplex oracle, were made cheaper; any change
to a walk point, its label or its order shows here.  A deliberate change
of walk output must re-record them and say so.
"""

import hashlib
import math
import random

import pytest

from edgewalk.classifier import make_classifier, make_test_classifier
from edgewalk.cli import _points_csv
from edgewalk.dcopf import default_network, make_dcopf_classifier
from edgewalk.errors import InputError
from edgewalk.geometry import Domain, Point2
from edgewalk.walk import EdgeConfig, Termination, run_edge


def _rosenbrock():
    return make_test_classifier("rosenbrock"), EdgeConfig(epsilon=0.05)


def _goldstein_price():
    return make_test_classifier("goldstein-price"), EdgeConfig(epsilon=0.05)


def _beale():
    return make_test_classifier("beale"), EdgeConfig(epsilon=0.05)


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
            _goldstein_price,
            Termination.CLOSED_LOOP,
            2257,
            "e714c1b5f38a7d2456e2cd36782703fbe957d3860be13310f6fde75dcfebfa9f",
        ),
        (
            _beale,
            Termination.CLOSED_LOOP,
            1904,
            "3bf7a2c5b7266d8cdae3ca4838e4da1b9e847b7baae0ff7fff56563031610f0b",
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
    ids=[
        "rosenbrock",
        "goldstein-price",
        "beale",
        "lower-half-strip",
        "rim-heavy-half-plane",
        "five-bus-study",
    ],
)
def test_points_csv_is_unchanged(build, termination, queries, digest):
    classifier, config = build()
    est = run_edge(classifier, config)
    assert est.termination is termination
    assert est.total_queries == queries
    text = _points_csv(est)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)


def _random_shapes(seed):
    """100 half-planes and 50 rotated ellipses over SQUARE, as (fn, threshold, seeds).

    Every 25th half-plane whose foot point lies in the square starts from
    explicit seeds 2e-10 apart across its line, closer than the domain's
    geometric tolerance, which run_edge refuses as an InputError.
    """
    rng = random.Random(seed)
    shapes = []
    for i in range(100):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        a, b = math.cos(theta), math.sin(theta)
        c = rng.uniform(-0.9, 0.9) * (abs(a) + abs(b))
        seeds = None
        foot = Point2(c * a, c * b)
        if i % 25 == 0 and SQUARE.contains(foot):
            delta = 1e-10
            seeds = (
                Point2(foot.x - delta * a, foot.y - delta * b),
                Point2(foot.x + delta * a, foot.y + delta * b),
            )
        shapes.append(((lambda x, y, a=a, b=b: a * x + b * y), c, seeds))
    for _ in range(50):
        cx, cy = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
        ra, rb = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)
        phi = rng.uniform(0.0, math.pi)
        co, si = math.cos(phi), math.sin(phi)

        def fn(x, y, cx=cx, cy=cy, ra=ra, rb=rb, co=co, si=si):
            dx, dy = x - cx, y - cy
            u = (dx * co + dy * si) / ra
            v = (-dx * si + dy * co) / rb
            return u * u + v * v

        shapes.append((fn, 1.0, None))
    return shapes


def _outcome(classifier, config):
    """The walk's outcome line, then its points.csv; refused input, one line."""
    try:
        est = run_edge(classifier, config)
    except InputError:
        return f"InputError,{classifier.query_count}\n"
    head = (
        f"{est.termination.value},{est.total_queries},{est.seed_queries},"
        f"{est.bisection_queries},{est.walk_queries}\n"
    )
    return head + _points_csv(est)


def test_random_shape_batch_is_unchanged():
    digest = hashlib.sha256()
    kinds = []
    for fn, threshold, seeds in _random_shapes(3):
        classifier = make_classifier(fn, threshold, SQUARE)
        config = EdgeConfig(epsilon=0.03)
        if seeds is not None:
            config = EdgeConfig(0.03, seed_interior=seeds[0], seed_exterior=seeds[1])
        text = _outcome(classifier, config)
        kinds.append(text.split(",", 1)[0])
        digest.update(text.encode())
    assert kinds.count("budget_exhausted") >= 1
    assert kinds.count("InputError") == 4
    assert digest.hexdigest() == (
        "42fa225804b6578703cd3b9481347b2e6669e2f348273c144260dd4a128befcd"
    )
