"""Black-box binary classifiers over rectangular 2D domains.

A classifier maps a point to a label in {0, 1} and is the only thing the
estimation algorithms may touch: they see labels and a query counter, never
the underlying scalar field.  Label 1 marks the interior set (scalar value
strictly below the threshold); ties go to label 0.
"""

from __future__ import annotations

from math import isfinite
from dataclasses import dataclass
from typing import Callable

from .errors import InputError
from .geometry import XY, Domain


def rosenbrock(x, y):
    """Banana-valley polynomial, minimum 0 at (1, 1)."""
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def goldstein_price(x, y):
    """Product of two quartic factors, minimum 3 at (0, -1)."""
    a = 1.0 + (x + y + 1.0) ** 2 * (
        19.0 - 14.0 * x + 3.0 * x * x - 14.0 * y + 6.0 * x * y + 3.0 * y * y
    )
    b = 30.0 + (2.0 * x - 3.0 * y) ** 2 * (
        18.0 - 32.0 * x + 12.0 * x * x + 48.0 * y - 36.0 * x * y + 27.0 * y * y
    )
    return a * b


def beale(x, y):
    """Sum of three squared bilinear residuals, minimum 0 at (3, 0.5)."""
    return (
        (1.5 - x + x * y) ** 2
        + (2.25 - x + x * y * y) ** 2
        + (2.625 - x + x * y ** 3) ** 2
    )


@dataclass(frozen=True)
class LevelSetSpec:
    """A scalar field plus the threshold and domain that binarize it."""

    name: str
    fn: Callable[[float, float], float]
    threshold: float
    domain: Domain


# Benchmark level sets.  Thresholds are chosen so each decision boundary is a
# single curve of substantial length inside its domain (see tests for the
# resulting boundary sizes).
CANONICAL_SPECS: dict[str, LevelSetSpec] = {
    "rosenbrock": LevelSetSpec(
        "rosenbrock", rosenbrock, 100.0, Domain(-6.0, 6.0, -2.0, 10.0)
    ),
    "goldstein_price": LevelSetSpec(
        "goldstein_price", goldstein_price, 3.0e5, Domain(-8.0, 10.0, -7.0, 6.0)
    ),
    "beale": LevelSetSpec(
        "beale", beale, 100.0, Domain(-6.0, 6.0, -7.0, 7.0)
    ),
}


@dataclass
class Classifier:
    """Counting wrapper around a black-box label function.

    query() is the single choke point for label evaluation: it validates the
    input and the label, and increments the counter.  Queries are issued
    from one thread; the counter is not locked.
    """

    label_fn: Callable[[XY], int]
    domain: Domain
    name: str = "classifier"
    query_count: int = 0

    def query(self, p: XY) -> int:
        if not (isfinite(p[0]) and isfinite(p[1])):
            raise InputError(f"classifier queried at non-finite point {p}")
        raw = self.label_fn(p)
        # checked before conversion, so that 0.7 or NaN is refused, not truncated
        if raw not in (0, 1):
            raise InputError(f"label function returned {raw!r}, expected 0 or 1")
        self.query_count += 1
        return 1 if raw else 0

    def reset(self) -> None:
        self.query_count = 0


def make_classifier(
    fn: Callable[[float, float], float],
    threshold: float,
    domain: Domain,
    name: str = "level_set",
) -> Classifier:
    """Binarize a scalar field: label 1 iff fn(x, y) < threshold."""

    def label_fn(p: XY) -> int:
        return 1 if fn(p[0], p[1]) < threshold else 0

    return Classifier(label_fn=label_fn, domain=domain, name=name)


def make_test_classifier(name: str) -> Classifier:
    """Classifier for one of the canonical benchmark level sets."""
    key = name.replace("-", "_").lower()
    if key not in CANONICAL_SPECS:
        raise InputError(
            f"unknown test function {name!r}; choose from {sorted(CANONICAL_SPECS)}"
        )
    spec = CANONICAL_SPECS[key]
    return make_classifier(spec.fn, spec.threshold, spec.domain, spec.name)
