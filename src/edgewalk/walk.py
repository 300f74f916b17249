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

Each step is one pass of float arithmetic: `circle_circle_intersection`
and `select_forward` compute the next test point between the two circles
in straight-line code, and the containment, stall and closure tests are
inline comparisons.  Each step leaves the pair epsilon apart, and the
bisection leaves it between epsilon/2 and epsilon apart unless the seeds
start closer.  So the pair degenerates only when explicit seeds lie within
the geometric tolerance of each other; `circle_circle_intersection` then
raises a typed `GeometricFailureError`.  Any geometric failure mid-walk
ends the walk with termination `failed` and keeps the partial estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    Domain,
    Point2,
    circle_circle_intersection,
    distance,
    midpoint,
    perimeter_circle_intersection,
    select_forward,
    wrapped_delta,
)


class Termination(str, Enum):
    CLOSED_LOOP = "closed_loop"
    BUDGET_EXHAUSTED = "budget_exhausted"
    FAILED = "failed"


@dataclass(frozen=True)
class EdgeConfig:
    """Parameters of one estimation run.

    Seeds are optional; when absent a deterministic coarse-to-fine domain
    scan locates one point of each label.  max_queries of None resolves to
    10 * perimeter / epsilon, enough for several boundary circumnavigations.
    """

    epsilon: float
    seed_interior: Point2 | None = None
    seed_exterior: Point2 | None = None
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
        for seed in (self.seed_interior, self.seed_exterior):
            if seed is not None and not domain.contains(Point2(*seed)):
                raise InputError(f"seed {seed} lies outside the domain")
        if self.max_queries is not None and self.max_queries < 1:
            raise InputError(f"max_queries must be positive, got {self.max_queries}")

    def budget_for(self, domain: Domain) -> int:
        if self.max_queries is not None:
            return self.max_queries
        return math.ceil(10.0 * domain.perimeter / self.epsilon)


@dataclass
class BisectionTrace:
    """All points queried while tightening a seed pair.

    inner[0] and outer[0] are the seeds; inner[-1] and outer[-1] are the
    refined endpoints, strictly less than epsilon apart on return.
    """

    inner: list[Point2]
    outer: list[Point2]
    queries: int = 0

    @property
    def inner_end(self) -> Point2:
        return self.inner[-1]

    @property
    def outer_end(self) -> Point2:
        return self.outer[-1]

    @property
    def gap(self) -> float:
        return distance(self.inner_end, self.outer_end)


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
    domain: Domain
    termination: Termination
    total_queries: int = 0
    seed_queries: int = 0
    bisection_queries: int = 0
    walk_queries: int = 0
    failure: str | None = None

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
    """Query gate: counts oracle calls and enforces an optional cap."""

    def __init__(self, classifier: Classifier, max_queries: int | None):
        self.classifier = classifier
        self.max_queries = max_queries
        self.start = classifier.query_count
        self.limit = math.inf if max_queries is None else self.start + max_queries

    @property
    def used(self) -> int:
        return self.classifier.query_count - self.start

    def query(self, p: Point2) -> int:
        if self.classifier.query_count >= self.limit:
            raise BudgetExhaustedError(
                f"query budget of {self.max_queries} exhausted"
            )
        return self.classifier.query(p)


def bisect(
    c: Classifier,
    x_in0: Point2,
    x_out0: Point2,
    epsilon: float,
    budget: _Budget | None = None,
) -> BisectionTrace:
    """Shrink an opposite-label pair until the endpoints are within epsilon.

    The caller vouches for the seed labels (they are not re-queried here).
    Each iteration queries the midpoint of the current pair and replaces the
    endpoint of matching label, halving the gap; the loop runs while the gap
    is at least epsilon.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise InputError(f"epsilon must be positive and finite, got {epsilon}")
    if budget is None:
        budget = _Budget(c, None)
    inner = [Point2(*x_in0)]
    outer = [Point2(*x_out0)]
    queries = 0
    while distance(inner[-1], outer[-1]) >= epsilon:
        m = midpoint(inner[-1], outer[-1])
        if budget.query(m) == 0:
            outer.append(m)
        else:
            inner.append(m)
        queries += 1
    return BisectionTrace(inner=inner, outer=outer, queries=queries)


def domain_boundary_walk(
    c: Classifier,
    inner: list[Point2],
    outer: list[Point2],
    labels_order: list[int],
    epsilon: float,
    budget: _Budget | None = None,
) -> int:
    """Step along the domain perimeter until the interior set ends.

    Invoked when the boundary runs off the domain: starting from the two
    perimeter points at distance epsilon from the latest inner point, the
    walk picks the one farther from the latest outer point, then advances
    monotonically along the perimeter in epsilon steps, appending interior
    points, until the first exterior point is found and appended.  Returns
    the number of points appended.
    """
    if budget is None:
        budget = _Budget(c, None)
    domain = c.domain
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
    c: Classifier,
    trace: BisectionTrace,
    config: EdgeConfig,
    budget: _Budget | None = None,
) -> BoundaryEstimate:
    """Trace the boundary in epsilon steps from a tightened bracket.

    Each step intersects the epsilon-circles around the latest inner and
    outer points and queries the intersection lying ahead of the pair (on
    the left of the inner-to-outer direction).  The queried point joins the
    set matching its label.  Off-domain test points trigger a perimeter
    walk.  The loop closes once the walk has first escaped the start
    bracket (beyond two epsilon) and the latest point then returns to
    within epsilon of a start point; walks on features too small to escape
    run until the budget ends.  A budget death or a geometric failure ends
    the walk with the points found so far, termination budget_exhausted or
    failed.
    """
    epsilon = config.epsilon
    domain = c.domain
    tol = domain.geom_tol
    if budget is None:
        budget = _Budget(c, config.budget_for(domain))
    query = budget.query
    hypot = math.hypot
    x_lo, x_hi = domain.x_min - tol, domain.x_max + tol
    y_lo, y_hi = domain.y_min - tol, domain.y_max + tol
    inner = [trace.inner_end]
    outer = [trace.outer_end]
    labels_order = [1, 0]
    (xi0, yi0), (xo0, yo0) = inner[0], outer[0]
    steps = 0
    last_test: Point2 | None = None
    escaped = False
    termination = Termination.CLOSED_LOOP
    failure = None
    walk_start = budget.used
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
                if query(x_test) == 1:
                    inner.append(x_test)
                    labels_order.append(1)
                else:
                    outer.append(x_test)
                    labels_order.append(0)
                steps += 1
            else:
                steps += domain_boundary_walk(
                    c, inner, outer, labels_order, epsilon, budget
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
    return BoundaryEstimate(
        inner=inner,
        outer=outer,
        labels_order=labels_order,
        epsilon=epsilon,
        domain=domain,
        termination=termination,
        walk_queries=budget.used - walk_start,
        failure=failure,
    )


def _seed_search(c: Classifier, config: EdgeConfig, budget: _Budget) -> tuple[Point2, Point2]:
    """Find one point of each label by a deterministic coarse-to-fine scan.

    Queries the corners, then the center, then cell centers of 2^k x 2^k
    grids of increasing k, stopping as soon as both labels have been seen.
    Returns the closest opposite-label pair among all points scanned.
    """
    domain = c.domain
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
            if max(domain.width, domain.height) / n < config.epsilon:
                raise NoBoundaryFoundError(
                    f"single-label domain down to cells finer than epsilon "
                    f"({config.epsilon}); no boundary to trace"
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
    domain = c.domain
    config.validate_for(domain)
    budget = _Budget(c, config.budget_for(domain))
    if config.seed_interior is not None and config.seed_exterior is not None:
        x_in = Point2(*config.seed_interior)
        x_out = Point2(*config.seed_exterior)
        if budget.query(x_in) != 1:
            raise InputError(f"interior seed {x_in} has label 0")
        if budget.query(x_out) != 0:
            raise InputError(f"exterior seed {x_out} has label 1")
    else:
        x_in, x_out = _seed_search(c, config, budget)
    seed_queries = budget.used
    trace = bisect(c, x_in, x_out, config.epsilon, budget)
    bisection_queries = budget.used - seed_queries
    est = decision_boundary_walk(c, trace, config, budget)
    est.seed_queries = seed_queries
    est.bisection_queries = bisection_queries
    est.total_queries = budget.used
    return est

