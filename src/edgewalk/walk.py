"""Boundary estimation by bisection plus an epsilon-stepping walk.

The estimator maintains two ordered point sets: inner (label 1) and outer
(label 0).  A bisection run first tightens a seed pair to within epsilon of
each other; the walk then repeatedly intersects the epsilon-circles around
the latest inner and outer points, queries the forward intersection point,
and appends it to the set matching its label.  Every appended point is
thereby within epsilon of a point of the opposite label, which brackets the
decision boundary between them.

When a test point falls outside the domain, the walk switches to stepping
along the domain perimeter until the boundary re-enters, then resumes.

`run_edge` builds one `_Budget` per run and threads it through the seed
scan, the bisection, the walk and the perimeter steps: it is their only
handle on the oracle and the domain, so every query of a run passes
through `_Budget.query`, and `run_edge` builds the estimate once, with its
per-phase counts.

Each step is one pass of float arithmetic: `circle_circle_intersection`
and `select_forward` compute the next test point between the two circles
in straight-line code, and the containment, stall and closure tests are
inline comparisons.  Each step leaves the pair epsilon apart, and the
bisection leaves it between epsilon/2 and epsilon apart unless the seeds
start closer; `EdgeConfig.validate_for` refuses explicit seeds within the
geometric tolerance of each other, so the pair never degenerates.  Any
geometric failure mid-walk ends the walk with termination `failed` and
keeps the partial estimate.

Point contract: the geometry builds every candidate point, rim hit and
bisection midpoint as a plain `(x, y)` tuple, and the walk makes a point a
`Point2` once, right before it queries it.  So every estimate point is a
`Point2`, and it is the same object the oracle was handed; `edgewalk run
--log-queries` relies on that to format each point once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .classifier import Classifier
from .errors import (
    BudgetExhaustedError,
    FullPerimeterError,
    GeometricFailureError,
    InputError,
    NoBoundaryFoundError,
    StalledWalkError,
)
from .geometry import (
    XY,
    Domain,
    Point2,
    circle_circle_intersection,
    distance,
    midpoint,
    perimeter_circle_intersection,
    select_forward,
    wrapped_delta,
)


# Point2(x, y) runs a Python-level __new__; this builds the same Point2
# from an (x, y) tuple in C, in about half the time
_new_point = tuple.__new__


class Termination(str, Enum):
    CLOSED_LOOP = "closed_loop"
    BUDGET_EXHAUSTED = "budget_exhausted"
    FAILED = "failed"


@dataclass(frozen=True)
class EdgeConfig:
    """Parameters of one estimation run.

    Seeds are optional, each a pair of finite numbers; when absent a
    deterministic coarse-to-fine domain scan locates one point of each
    label.  max_queries of None resolves to 10 * perimeter / epsilon,
    enough for several boundary circumnavigations.
    """

    epsilon: float
    seed_interior: XY | None = None
    seed_exterior: XY | None = None
    max_queries: int | None = None

    def validate_for(self, domain: Domain) -> None:
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise InputError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.epsilon >= min(domain.width, domain.height):
            raise InputError(
                f"epsilon {self.epsilon} must be smaller than both domain sides "
                f"({domain.width} x {domain.height})"
            )
        if (self.seed_interior is None) != (self.seed_exterior is None):
            raise InputError("provide both seeds or neither")
        for name, seed in (
            ("interior", self.seed_interior),
            ("exterior", self.seed_exterior),
        ):
            if seed is None:
                continue
            try:
                x, y = seed
                finite = math.isfinite(x) and math.isfinite(y)
            except (TypeError, ValueError):
                finite = False
            if not finite:
                raise InputError(
                    f"{name} seed {seed!r} is not a pair of finite numbers"
                )
            if not domain.contains(seed):
                raise InputError(f"{name} seed {seed} lies outside the domain")
        if self.seed_interior is not None and self.seed_exterior is not None:
            gap = distance(self.seed_interior, self.seed_exterior)
            # a pair this close has no circle intersection to step to
            if gap <= domain.geom_tol:
                raise InputError(
                    f"seeds {self.seed_interior} and {self.seed_exterior} are "
                    f"{gap:g} apart, within the geometric tolerance "
                    f"{domain.geom_tol:g}"
                )
        if self.max_queries is not None and self.max_queries < 1:
            raise InputError(f"max_queries must be positive, got {self.max_queries}")

    def budget_for(self, domain: Domain) -> int:
        if self.max_queries is not None:
            return self.max_queries
        return math.ceil(10.0 * domain.perimeter / self.epsilon)


@dataclass
class BoundaryEstimate:
    """Ordered boundary localization produced by a walk.

    labels_order records the label of each appended point in append order,
    so the interleaving of the two sets can be reconstructed: the k-th
    entry says which set received its next point at step k.  A walk that
    ends in a geometric failure keeps its message in failure.
    """

    inner: list[Point2]
    outer: list[Point2]
    labels_order: list[int]
    epsilon: float
    termination: Termination
    total_queries: int
    seed_queries: int
    bisection_queries: int
    walk_queries: int
    failure: str | None

    def points_in_order(self) -> list[tuple[Point2, int]]:
        """All estimate points as (point, label), in append order."""
        it_in = iter(self.inner)
        it_out = iter(self.outer)
        out: list[tuple[Point2, int]] = []
        for lab in self.labels_order:
            p = next(it_in) if lab == 1 else next(it_out)
            out.append((p, lab))
        return out

    @property
    def walk_points_appended(self) -> int:
        """Points appended after the initial bracket pair."""
        return len(self.labels_order) - 2


class _Budget:
    """The run's query gate: counts oracle calls and enforces the cap.

    run_edge builds one per run and passes it to every step, which reads
    the domain from it and queries only through query().
    """

    def __init__(self, classifier: Classifier, max_queries: int):
        self.classifier = classifier
        self.domain = classifier.domain
        self.max_queries = max_queries
        self.start = classifier.query_count
        self.limit = self.start + max_queries

    @property
    def used(self) -> int:
        return self.classifier.query_count - self.start

    def query(self, p: Point2) -> int:
        if self.classifier.query_count >= self.limit:
            raise BudgetExhaustedError(
                f"query budget of {self.max_queries} exhausted"
            )
        return self.classifier.query(p)


def _bisect(
    budget: _Budget, x_in: Point2, x_out: Point2, epsilon: float
) -> tuple[Point2, Point2]:
    """Shrink an opposite-label pair until the endpoints are within epsilon.

    The caller vouches for the seed labels (they are not re-queried here)
    and for a positive epsilon.  Each iteration queries the midpoint of the
    current pair and replaces the endpoint of matching label, halving the
    gap; the loop runs while the gap is at least epsilon.  Returns the
    refined (inner, outer) pair.
    """
    while distance(x_in, x_out) >= epsilon:
        m = _new_point(Point2, midpoint(x_in, x_out))
        if budget.query(m) == 0:
            x_out = m
        else:
            x_in = m
    return x_in, x_out


def domain_boundary_walk(
    budget: _Budget,
    inner: list[Point2],
    outer: list[Point2],
    labels_order: list[int],
    epsilon: float,
) -> int:
    """Step along the domain perimeter until the interior set ends.

    Invoked when the boundary runs off the domain: starting from the two
    perimeter points at distance epsilon from the latest inner point, the
    walk picks the one farther from the latest outer point, then advances
    monotonically along the perimeter in epsilon steps, appending interior
    points, until the first exterior point is found and appended.  Returns
    the number of points appended.
    """
    domain = budget.domain
    tol = domain.geom_tol
    period = domain.perimeter
    cands = perimeter_circle_intersection(domain, inner[-1], epsilon)
    if not cands:
        raise GeometricFailureError(
            f"no perimeter point at distance {epsilon} from {inner[-1]}"
        )
    out_end = outer[-1]
    x_test, s_cur = max(cands, key=lambda ps: distance(ps[0], out_end))
    if len(cands) > 1:
        other_deltas = [
            wrapped_delta(s, s_cur, period)
            for p, s in cands
            if abs(s - s_cur) > tol
        ]
        nearest = min(other_deltas, key=abs)
        direction = 1.0 if nearest >= 0.0 else -1.0
    else:
        direction = 1.0
    query = budget.query
    half_period = 0.5 * period
    appended = 0
    span = 0.0
    while True:
        x_test = _new_point(Point2, x_test)
        if query(x_test) == 0:
            outer.append(x_test)
            labels_order.append(0)
            return appended + 1
        inner.append(x_test)
        labels_order.append(1)
        appended += 1
        # the nearest hit ahead, as min() over (delta, s, point) would pick it
        d_new = math.inf
        for p, s in perimeter_circle_intersection(domain, x_test, epsilon):
            d = (s - s_cur) % period  # wrapped_delta(s_cur, s, period)
            if d > half_period:
                d -= period
            d *= direction
            if tol < d < d_new or (d == d_new and (s, p) < (s_new, p_new)):
                d_new, s_new, p_new = d, s, p
        if d_new == math.inf:
            raise GeometricFailureError(
                f"domain walk found no forward perimeter point from {x_test}"
            )
        span += d_new
        if span >= period:
            raise FullPerimeterError(
                "perimeter walk traversed the full domain boundary without "
                "leaving the interior set"
            )
        x_test, s_cur = p_new, s_new


def decision_boundary_walk(
    budget: _Budget,
    inner: list[Point2],
    outer: list[Point2],
    labels_order: list[int],
    epsilon: float,
) -> tuple[Termination, str | None]:
    """Trace the boundary in epsilon steps from a tightened bracket.

    inner and outer hold the bracket pair on entry; the walk appends to
    them and to labels_order.  Each step intersects the epsilon-circles
    around the latest inner and outer points and queries the intersection
    lying ahead of the pair (on the left of the inner-to-outer direction).
    The queried point joins the set matching its label.  Off-domain test
    points trigger a perimeter walk.  The loop closes once the walk has first escaped the start
    bracket (beyond two epsilon) and the latest point then returns to
    within epsilon of a start point; walks on features too small to escape
    run until the budget ends.  A budget death or a geometric failure ends
    the walk with the points found so far.  Returns the termination and,
    for failed, the failure message.
    """
    domain = budget.domain
    tol = domain.geom_tol
    query = budget.query
    hypot = math.hypot
    x_lo, x_hi = domain.x_min - tol, domain.x_max + tol
    y_lo, y_hi = domain.y_min - tol, domain.y_max + tol
    (xi0, yi0), (xo0, yo0) = inner[0], outer[0]
    steps = 0
    last_test: XY | None = None
    escaped = False
    termination = Termination.CLOSED_LOOP
    failure = None
    while True:
        try:
            cands = circle_circle_intersection(inner[-1], outer[-1], epsilon, tol)
            x_test = select_forward(inner[-1], outer[-1], cands, tol)
            x, y = x_test
            if (
                last_test is not None
                and hypot(x - last_test[0], y - last_test[1]) <= tol
            ):
                raise StalledWalkError(
                    f"walk repeated test point {x_test} after {steps} steps"
                )
            last_test = x_test
            if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
                x_test = _new_point(Point2, x_test)
                if query(x_test) == 1:
                    inner.append(x_test)
                    labels_order.append(1)
                else:
                    outer.append(x_test)
                    labels_order.append(0)
                steps += 1
            else:
                steps += domain_boundary_walk(
                    budget, inner, outer, labels_order, epsilon
                )
                x, y = outer[-1]
                last_test = None
        except BudgetExhaustedError:
            termination = Termination.BUDGET_EXHAUSTED
            break
        except GeometricFailureError as exc:
            termination = Termination.FAILED
            failure = str(exc)
            break
        # distance of the latest point to the nearer start point
        back_dist = hypot(x - xi0, y - yi0)
        to_outer = hypot(x - xo0, y - yo0)
        if to_outer < back_dist:
            back_dist = to_outer
        if escaped:
            if (
                back_dist <= epsilon
                and steps >= 3
                and len(inner) > 1
                and len(outer) > 1
            ):
                break
        elif back_dist > 2.0 * epsilon:
            escaped = True
    return termination, failure


def _seed_search(budget: _Budget, epsilon: float) -> tuple[Point2, Point2]:
    """Find one point of each label by a deterministic coarse-to-fine scan.

    Queries the corners, then the center, then cell centers of 2^k x 2^k
    grids of increasing k, stopping as soon as both labels have been seen.
    Returns the closest opposite-label pair among all points scanned.
    """
    domain = budget.domain
    points: list[Point2] = []
    labels: list[int] = []
    seen = set()

    def probe(p: Point2) -> bool:
        labels.append(budget.query(p))
        points.append(p)
        seen.add(labels[-1])
        return len(seen) == 2

    try:
        for p in [*domain.corners(), domain.center]:
            if probe(p):
                break
        k = 1
        while len(seen) < 2:
            n = 2 ** k
            if max(domain.width, domain.height) / n < epsilon:
                raise NoBoundaryFoundError(
                    f"single-label domain down to cells finer than epsilon "
                    f"({epsilon}); no boundary to trace"
                )
            found = False
            for j in range(n):
                y = domain.y_min + (2 * j + 1) * domain.height / (2 * n)
                for i in range(n):
                    x = domain.x_min + (2 * i + 1) * domain.width / (2 * n)
                    if probe(Point2(x, y)):
                        found = True
                        break
                if found:
                    break
            k += 1
    except BudgetExhaustedError as exc:
        raise NoBoundaryFoundError(
            f"seed scan exhausted the query budget after {budget.used} "
            f"queries without seeing both labels"
        ) from exc
    ins = [p for p, lab in zip(points, labels) if lab == 1]
    outs = [p for p, lab in zip(points, labels) if lab == 0]
    best: tuple[Point2, Point2] | None = None
    best_d = math.inf
    # ties go to the latest pair scanned
    for pi in ins:
        for po in outs:
            d = distance(pi, po)
            if d <= best_d:
                best_d = d
                best = (pi, po)
    assert best is not None
    return best


def run_edge(c: Classifier, config: EdgeConfig) -> BoundaryEstimate:
    """Full estimation pipeline: seeds, bisection, walk.

    Returns the boundary estimate with per-phase query counts filled in.
    Raises NoBoundaryFoundError when the domain appears single-label and
    BudgetExhaustedError when the budget dies before any boundary point is
    certified; a budget death during the walk instead returns the partial
    estimate with termination budget_exhausted, and a geometric failure
    during the walk returns it with termination failed.
    """
    config.validate_for(c.domain)
    epsilon = config.epsilon
    budget = _Budget(c, config.budget_for(c.domain))
    if config.seed_interior is not None and config.seed_exterior is not None:
        x_in = Point2(*config.seed_interior)
        x_out = Point2(*config.seed_exterior)
        if budget.query(x_in) != 1:
            raise InputError(f"interior seed {x_in} has label 0")
        if budget.query(x_out) != 0:
            raise InputError(f"exterior seed {x_out} has label 1")
    else:
        x_in, x_out = _seed_search(budget, epsilon)
    seed_queries = budget.used
    x_in, x_out = _bisect(budget, x_in, x_out, epsilon)
    bisection_queries = budget.used - seed_queries
    inner, outer, labels_order = [x_in], [x_out], [1, 0]
    termination, failure = decision_boundary_walk(
        budget, inner, outer, labels_order, epsilon
    )
    return BoundaryEstimate(
        inner=inner,
        outer=outer,
        labels_order=labels_order,
        epsilon=epsilon,
        termination=termination,
        total_queries=budget.used,
        seed_queries=seed_queries,
        bisection_queries=bisection_queries,
        walk_queries=budget.used - seed_queries - bisection_queries,
        failure=failure,
    )
