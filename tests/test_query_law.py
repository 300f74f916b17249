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
"""

import functools
import math

import pytest

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
