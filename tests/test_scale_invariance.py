"""A walk is scale-free: scaled by a power of two, it is the same walk, scaled.

Scaling the domain, the shape and epsilon by 2^k scales every coordinate
the walk computes by 2^k exactly, `Domain.geom_tol` and the epsilon
floors included, so every query of the scaled run is the unit run's
query times 2^k, bit for bit, with the same label and the same
termination.  This holds for k = -40 .. 40 on every `shapes-random` walk
of seed 1.
"""

import math
import random

import pytest

from edgewalk.classifier import make_classifier
from edgewalk.geometry import Domain
from edgewalk.walk import EdgeConfig, Termination, run_edge

EPSILON = 0.03


def _draw_shapes(seed, n_halfplanes, n_ellipses):
    """Half-planes and ellipses over [-1, 1]^2, drawn as `shapes-random` draws them."""
    rng = random.Random(seed)
    shapes = []
    for _ in range(n_halfplanes):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        a, b = math.cos(theta), math.sin(theta)
        shapes.append(("halfplane", a, b, rng.uniform(-0.9, 0.9) * (abs(a) + abs(b))))
    for _ in range(n_ellipses):
        cx, cy = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
        ra, rb = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)
        shapes.append(("ellipse", cx, cy, ra, rb, rng.uniform(0.0, math.pi)))
    return shapes


SHAPES = _draw_shapes(1, 6, 3)


def _scaled_run(shape, k):
    """The walk of shape on [-1, 1]^2 at EPSILON, everything scaled by 2^k."""
    s = math.ldexp(1.0, k)
    if shape[0] == "halfplane":
        _, a, b, c = shape

        def fn(x, y):
            return a * x + b * y

        threshold = c * s
    else:
        _, cx, cy, ra, rb, phi = shape
        cx, cy, ra, rb = cx * s, cy * s, ra * s, rb * s
        co, si = math.cos(phi), math.sin(phi)

        def fn(x, y):
            dx, dy = x - cx, y - cy
            u = (dx * co + dy * si) / ra
            v = (-dx * si + dy * co) / rb
            return u * u + v * v

        threshold = 1.0
    c = make_classifier(fn, threshold, Domain(-s, s, -s, s), shape[0])
    return run_edge(c, EdgeConfig(epsilon=EPSILON * s))


@pytest.fixture(scope="module")
def unit_runs():
    runs = [_scaled_run(shape, 0) for shape in SHAPES]
    assert all(est.termination is Termination.CLOSED_LOOP for est in runs)
    return runs


@pytest.mark.parametrize("k", range(-40, 41))
def test_scaled_walk_is_the_unit_walk_scaled(k, unit_runs):
    for shape, unit in zip(SHAPES, unit_runs):
        est = _scaled_run(shape, k)
        scaled = [math.ldexp(v, k).hex() for v in unit.xy]
        assert [v.hex() for v in est.xy] == scaled, shape
        assert est.labels == unit.labels
        assert [v.hex() for p in est.pair for v in p] == [
            math.ldexp(v, k).hex() for p in unit.pair for v in p
        ]
        assert est.termination is unit.termination
        counts = (est.seed_queries, est.bisection_queries, est.walk_queries)
        assert counts == (unit.seed_queries, unit.bisection_queries, unit.walk_queries)
