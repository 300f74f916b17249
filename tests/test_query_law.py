"""The walk's query law: about 2.2 walk queries per epsilon of boundary.

A closed walk costs walk_queries ~ 2.2 L / epsilon, where L is the length
of the boundary it traces; a walk that misses closure costs many times
that.  The band below was fitted on these walks (walk queries, and
walk_queries * epsilon / L):

    unit circle, L = 2 pi, on [-2, 2]^2
        epsilon 0.1     135   2.149
        epsilon 0.05    275   2.188
        epsilon 0.02    689   2.193
        epsilon 0.01   1383   2.201
        epsilon 0.005  2769   2.204
        epsilon 0.002  6925   2.204
    level sets, L = polyline_length of reference_from_scalar at cell 5e-4
        rosenbrock       L = 43.038   0.01: 9706  2.255   0.002: 48264  2.243
        goldstein_price  L = 51.483   0.01: 11464 2.227   0.002: 57116  2.219
        beale            L = 42.025   0.01: 9462  2.252   0.002: 47577  2.264

A change to the step rule may move a ratio within the band.  It may not
widen the band to pass: a walk outside it trades queries for something.

A clipped shape's outline runs partly along the rim, where a rim step
costs about 1 query per epsilon, and partly along the shape's own
boundary, at the decision steps' 2.2.  A least-squares fit over 300
walks on wide random clipped half-planes and ellipses (`clipped.py`) at
epsilon 0.05, 0.02 and 0.01 gave walk_queries = 2.196 B / epsilon +
1.006 R / epsilon, for the boundary length B and the rim length R of the
outline; against 2.2 B + R, those walks cost 0.930-1.033 at epsilon 0.02
and 0.01, and down to 0.687 at 0.05, where closing within epsilon of the
start skips a larger share of a short outline.  A clipped band per walk,
walk_queries * epsilon / (2.2 B + R), was fitted on these walks (walk
queries, R, B, the band's ratio, and walk_queries * epsilon / (R + B)):

                                       R      B     epsilon 0.02          epsilon 0.01
    -0.44x + 1.17y < -1.109        1.567  1.216   205  0.966  1.473   415  0.978  1.491
    y < 0                          4.000  2.000   428  1.019  1.427   858  1.021  1.430
    x + y < -0.8                   2.400  1.697   300  0.978  1.464   603  0.983  1.472
    x + 2y < 0.3                   4.300  2.236   456  0.989  1.395   916  0.994  1.401
    ellipse (0.6, 0), 0.6 x 0.3    0.450  2.316   274  0.988  1.981   553  0.997  1.999
    ellipse (-0.7, 0.7), 0.5x0.35  1.155  1.376   206  0.985  1.628   414  0.990  1.636

The first half-plane starts on the rim with a rim episode.  Before its
walk closed on re-entering that episode's arclength it ran out of budget
at 0.02 (ratio 18.8) and closed after two laps at 0.01 (1.954): a band
on the plain per-length ratio, 1.0 on the rim to 2.2 off it, could not
tell a second lap of a rim-heavy outline from one lap of the shape.
"""

import functools
import math

import pytest

import clipped
from edgewalk.classifier import CANONICAL_SPECS, make_classifier, make_test_classifier
from edgewalk.geometry import Domain
from edgewalk.marching import polyline_length
from edgewalk.metrics import reference_from_scalar
from edgewalk.walk import EdgeConfig, Termination, run_edge

LOW, HIGH = 2.1, 2.3


def walk_ratio(c, epsilon, length):
    est = run_edge(c, EdgeConfig(epsilon=epsilon))
    assert est.termination is Termination.CLOSED_LOOP
    return est.walk_queries * epsilon / length


@pytest.mark.parametrize("epsilon", [0.1, 0.05, 0.02, 0.01, 0.005, 0.002])
def test_unit_circle_walk_costs_about_2_2_queries_per_epsilon(epsilon):
    dom = Domain(-2.0, 2.0, -2.0, 2.0)
    c = make_classifier(lambda x, y: x * x + y * y, 1.0, dom, "circle")
    assert LOW < walk_ratio(c, epsilon, 2.0 * math.pi) < HIGH


@functools.cache
def level_set_length(name):
    spec = CANONICAL_SPECS[name]
    ref = reference_from_scalar(spec.fn, spec.threshold, spec.domain, 5e-4)
    return sum(polyline_length(p) for p in ref.polylines)


@pytest.mark.parametrize("epsilon", [0.01, 0.002])
@pytest.mark.parametrize("name", sorted(CANONICAL_SPECS))
def test_level_set_walk_costs_about_2_2_queries_per_epsilon(name, epsilon):
    c = make_test_classifier(name)
    assert LOW < walk_ratio(c, epsilon, level_set_length(name)) < HIGH


CLIPPED_LOW, CLIPPED_HIGH = 0.94, 1.06


def _halfplane(a, b, c):
    """a x + b y < c as a `clipped.halfplane`."""
    n = math.hypot(a, b)
    a, b, c = a / n, b / n, c / n
    return clipped.halfplane(math.atan2(b, a), c / (abs(a) + abs(b)))


CLIPPED_SHAPES = {
    "rim-heavy-half-plane": lambda: _halfplane(-0.44, 1.17, -1.109),
    "lower-half": lambda: _halfplane(0.0, 1.0, 0.0),
    "corner-cut": lambda: _halfplane(1.0, 1.0, -0.8),
    "slanted-half-plane": lambda: _halfplane(1.0, 2.0, 0.3),
    "ellipse-on-a-side": lambda: clipped.ellipse(0.6, 0.0, 0.6, 0.3, 0.4),
    "ellipse-over-a-corner": lambda: clipped.ellipse(-0.7, 0.7, 0.5, 0.35, 1.0),
}


@pytest.mark.parametrize("epsilon", [0.02, 0.01])
@pytest.mark.parametrize("name", CLIPPED_SHAPES)
def test_clipped_walk_costs_2_2_per_epsilon_off_the_rim_and_1_on_it(name, epsilon):
    shape = CLIPPED_SHAPES[name]()
    assert shape.wide(epsilon)
    c = make_classifier(shape.fn, shape.threshold, clipped.SQUARE)
    est = run_edge(c, EdgeConfig(epsilon=epsilon))
    assert est.termination is Termination.CLOSED_LOOP
    rim, boundary = shape.lengths()
    ratio = est.walk_queries * epsilon / (2.2 * boundary + rim)
    assert CLIPPED_LOW < ratio < CLIPPED_HIGH
