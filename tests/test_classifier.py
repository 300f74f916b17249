import numpy as np
import pytest

from edgewalk.classifier import (
    CANONICAL_SPECS,
    beale,
    goldstein_price,
    make_classifier,
    make_test_classifier,
    rosenbrock,
)
from edgewalk.errors import InputError
from edgewalk.geometry import Domain, Point2


def test_rosenbrock_known_values():
    assert rosenbrock(1.0, 1.0) == 0.0
    assert rosenbrock(0.0, 0.0) == 1.0
    assert rosenbrock(-1.0, 2.0) == pytest.approx(104.0)


def test_beale_known_values():
    assert beale(3.0, 0.5) == 0.0
    assert beale(0.0, 0.0) == pytest.approx(14.203125)


def test_goldstein_price_known_values():
    assert goldstein_price(0.0, -1.0) == pytest.approx(3.0)
    assert goldstein_price(0.0, 0.0) == pytest.approx(600.0)


def _goldstein_price_factored(x, y):
    # same surface written in rotated coordinates; the two quartic factors
    # depend only on x + y and 2x - 3y respectively
    v = x + y
    u = 2.0 * x - 3.0 * y
    psi = 1.0 + (v + 1.0) ** 2 * (3.0 * v * v - 14.0 * v + 19.0)
    phi = 30.0 + u * u * (3.0 * u * u - 16.0 * u + 18.0)
    return psi * phi


def test_goldstein_price_matches_factored_form():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-8.0, 10.0, size=500)
    ys = rng.uniform(-7.0, 6.0, size=500)
    got = goldstein_price(xs, ys)
    want = _goldstein_price_factored(xs, ys)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_functions_broadcast_over_arrays():
    xs = np.linspace(-2.0, 2.0, 7)
    ys = np.linspace(-1.0, 3.0, 7)
    for fn in (rosenbrock, goldstein_price, beale):
        out = fn(xs[:, None], ys[None, :])
        assert out.shape == (7, 7)
        assert np.isfinite(out).all()
        assert out[2, 3] == pytest.approx(fn(float(xs[2]), float(ys[3])))


def test_canonical_domains():
    assert CANONICAL_SPECS["rosenbrock"].domain == Domain(-6.0, 6.0, -2.0, 10.0)
    assert CANONICAL_SPECS["goldstein_price"].domain == Domain(-8.0, 10.0, -7.0, 6.0)
    assert CANONICAL_SPECS["beale"].domain == Domain(-6.0, 6.0, -7.0, 7.0)


class TestClassifier:
    def test_label_is_strictly_below_threshold(self):
        dom = Domain(0.0, 1.0, 0.0, 1.0)
        c = make_classifier(lambda x, y: x, 0.5, dom, "ramp")
        assert c.query(Point2(0.25, 0.0)) == 1
        assert c.query(Point2(0.75, 0.0)) == 0
        # a value exactly at the threshold is exterior
        assert c.query(Point2(0.5, 0.0)) == 0

    def test_query_counting_and_reset(self):
        c = make_test_classifier("rosenbrock")
        assert c.query_count == 0
        c.query(Point2(0.0, 0.0))
        c.query(Point2(1.0, 1.0))
        assert c.query_count == 2
        c.reset()
        assert c.query_count == 0

    def test_query_log_records_points_and_labels(self):
        c = make_test_classifier("rosenbrock", keep_log=True)
        c.query(Point2(1.0, 1.0))
        c.query(Point2(5.0, -1.0))
        assert c.log == [(Point2(1.0, 1.0), 1), (Point2(5.0, -1.0), 0)]

    def test_rejects_non_finite_points(self):
        c = make_test_classifier("rosenbrock")
        with pytest.raises(InputError):
            c.query(Point2(float("nan"), 0.0))
        with pytest.raises(InputError):
            c.query(Point2(0.0, float("inf")))

    def test_rejects_labels_outside_zero_one(self):
        dom = Domain(0.0, 1.0, 0.0, 1.0)
        from edgewalk.classifier import Classifier

        for bad in (2, -1, 0.7, 1.5, float("nan"), "1"):
            c = Classifier(label_fn=lambda p, bad=bad: bad, domain=dom, name="bad")
            with pytest.raises(InputError):
                c.query(Point2(0.5, 0.5))
            assert c.query_count == 0

    def test_accepts_label_values_equal_to_zero_or_one(self):
        dom = Domain(0.0, 1.0, 0.0, 1.0)
        from edgewalk.classifier import Classifier

        goods = [True, False, 1.0, 0.0, np.bool_(True), np.int64(0)]
        labels = [1, 0, 1, 0, 1, 0]
        for good, label in zip(goods, labels):
            c = Classifier(label_fn=lambda p, good=good: good, domain=dom, name="ok")
            got = c.query(Point2(0.5, 0.5))
            assert got == label and type(got) is int


def test_named_classifier_lookup():
    a = make_test_classifier("goldstein_price")
    b = make_test_classifier("goldstein-price")
    assert a.name == b.name == "goldstein_price"
    with pytest.raises(InputError):
        make_test_classifier("himmelblau")


def test_named_classifiers_agree_with_raw_functions():
    fns = {"rosenbrock": rosenbrock, "goldstein_price": goldstein_price, "beale": beale}
    rng = np.random.default_rng(19)
    for name, spec in CANONICAL_SPECS.items():
        c = make_test_classifier(name)
        d = spec.domain
        for _ in range(100):
            p = Point2(
                float(rng.uniform(d.x_min, d.x_max)),
                float(rng.uniform(d.y_min, d.y_max)),
            )
            want = 1 if fns[name](p.x, p.y) < spec.threshold else 0
            assert c.query(p) == want
