import math

import numpy as np
import pytest

from edgewalk.classifier import make_classifier
from edgewalk.errors import (
    EmptyContourError,
    InputError,
    ReferenceResolutionError,
)
from edgewalk.geometry import Domain, Point2
from edgewalk.marching import marching_squares, polyline_length
from edgewalk.metrics import (
    asd_to_reference,
    average_symmetric_distance,
    coverage_within,
    reference_from_estimate,
    reference_from_scalar,
)
from edgewalk.walk import EdgeConfig, run_edge


def _asd_brute(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    total = 0.0
    for p in a:
        total += min(math.hypot(p[0] - q[0], p[1] - q[1]) for q in b)
    for q in b:
        total += min(math.hypot(p[0] - q[0], p[1] - q[1]) for p in a)
    return total / (len(a) + len(b))


def test_asd_hand_value():
    assert average_symmetric_distance([(0.0, 0.0)], [(3.0, 4.0)]) == 5.0


def test_asd_is_zero_on_identical_sets():
    pts = [(0.0, 0.0), (1.0, 2.0), (-3.0, 0.5)]
    assert average_symmetric_distance(pts, pts) == 0.0


def test_asd_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 51))
        a = rng.uniform(-10.0, 10.0, size=(n, 2))
        b = rng.uniform(-10.0, 10.0, size=(m, 2))
        got = average_symmetric_distance(a, b)
        want = _asd_brute(a, b)
        assert got == pytest.approx(want, rel=1e-12)


def test_asd_is_symmetric():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(30, 2))
    b = rng.normal(size=(20, 2))
    assert average_symmetric_distance(a, b) == pytest.approx(
        average_symmetric_distance(b, a), rel=1e-14
    )


def test_asd_rejects_empty_sets():
    with pytest.raises(InputError):
        average_symmetric_distance([], [(0.0, 0.0)])


CIRCLE_DOMAIN = Domain(-2.0, 2.0, -2.0, 2.0)


def circle_field(x, y):
    return x * x + y * y


class TestScalarReference:
    def test_circle_reference_hugs_the_circle(self):
        ref = reference_from_scalar(circle_field, 1.0, CIRCLE_DOMAIN, 0.02)
        r = np.hypot(ref.points[:, 0], ref.points[:, 1])
        assert np.abs(r - 1.0).max() <= 0.02
        assert ref.slack == 0.02
        assert ref.source == "scalar"
        assert len(ref.polylines) == 1

    def test_component_filter_drops_short_pieces(self):
        d = Domain(-4.0, 4.0, -2.0, 2.0)

        def three_discs(x, y):
            # radii 1, 0.1 and 0.04: the small circles are 10% and 4% as long;
            # the smallest is centred on a node the contouring always samples
            a = (x + 2.0) ** 2 + y**2 - 1.0
            b = (x - 2.0) ** 2 + y**2 - 0.1**2
            c = x**2 + (y - 1.2) ** 2 - 0.04**2
            return np.minimum(np.minimum(a, b), c)

        pieces = marching_squares(three_discs, 0.0, d, 0.02)
        lengths = sorted(polyline_length(p) for p in pieces)
        assert len(lengths) == 3
        assert lengths[0] < 0.05 * lengths[2] < lengths[1]
        ref = reference_from_scalar(three_discs, 0.0, d, 0.02)
        assert sorted(polyline_length(p) for p in ref.polylines) == lengths[1:]
        assert (np.hypot(ref.points[:, 0], ref.points[:, 1] - 1.2) > 0.5).all()

    def test_domain_edge_runs_complete_the_region_boundary(self):
        d = Domain(0.0, 1.0, 0.0, 1.0)
        bare = reference_from_scalar(lambda x, y: y + 0.0 * x, 0.5, d, 0.05)
        assert bare.points[:, 1].min() >= 0.5 - 1e-9
        full = reference_from_scalar(
            lambda x, y: y + 0.0 * x, 0.5, d, 0.05, include_domain_edges=True
        )
        on_bottom = full.points[np.abs(full.points[:, 1]) < 1e-12]
        assert len(on_bottom) >= 20
        # refined crossings terminate the side runs exactly at the line
        on_left = full.points[np.abs(full.points[:, 0]) < 1e-12]
        assert on_left[:, 1].max() == pytest.approx(0.5, abs=1e-9)

    def test_empty_contour_raises(self):
        with pytest.raises(EmptyContourError):
            reference_from_scalar(circle_field, -1.0, CIRCLE_DOMAIN, 0.1)


class TestBlackboxReference:
    def make_run(self, eps):
        c = make_classifier(circle_field, 1.0, CIRCLE_DOMAIN, "circle")
        return run_edge(c, EdgeConfig(epsilon=eps))

    def test_midpoints_halve_the_localization(self):
        fine = self.make_run(0.004)
        ref = reference_from_estimate(fine)
        assert ref.source == "blackbox"
        assert ref.slack == 0.002
        r = np.hypot(ref.points[:, 0], ref.points[:, 1])
        assert np.abs(r - 1.0).max() <= 0.002 + 1e-9

    def test_scoring_requires_ten_times_finer_reference(self):
        est = self.make_run(0.05)
        fine = reference_from_estimate(self.make_run(0.005))
        coarse = reference_from_estimate(self.make_run(0.02))
        res = asd_to_reference(est.inner, est.outer, fine, epsilon=0.05)
        assert 0.0 < res.total < 0.1
        with pytest.raises(ReferenceResolutionError):
            asd_to_reference(est.inner, est.outer, coarse, epsilon=0.05)


def test_asd_breakdown_totals_sides():
    est_inner = [(0.0, 0.0)]
    est_outer = [(0.0, 2.0)]
    ref = reference_from_scalar(lambda x, y: y + 0.0 * x, 1.0, Domain(-1, 1, 0, 2), 0.1)
    res = asd_to_reference(est_inner, est_outer, ref)
    assert res.total == pytest.approx(res.inner + res.outer)
    assert res.inner == pytest.approx(res.outer, abs=1e-12)


def test_coverage_reports_fraction_and_worst_point():
    ref = reference_from_scalar(circle_field, 1.0, CIRCLE_DOMAIN, 0.02)
    pts = [Point2(1.0, 0.0), Point2(0.0, 1.05), Point2(0.0, 1.5)]
    cov = coverage_within(pts, ref, 0.1)
    assert cov.fraction_within == pytest.approx(2.0 / 3.0)
    assert cov.n_outside == 1
    assert cov.max_distance == pytest.approx(0.5, abs=0.03)
