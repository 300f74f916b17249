"""Boundary estimation by bisection plus an epsilon-stepping walk.

The estimator maintains two ordered point sets: inner (label 1) and outer
(label 0).  A bisection run first tightens a seed pair to within epsilon of
each other; the walk then repeatedly intersects the epsilon-circles around
the latest inner and outer points, queries the forward intersection point,
and appends it to the set matching its label.  Every appended point is
thereby within epsilon of a point of the opposite label, which brackets the
decision boundary between them.

The walk is one generator with two modes, `_walk_points`, which yields
each test point and is sent its label.  A decision step intersects the
two circles, as above.  When its test point falls outside the domain, a
rim episode begins: the walk steps counter-clockwise along the domain
perimeter, keeping the interior set on its left as the decision steps
do, until it finds an exterior point, then goes back to decision steps.
An episode enters the rim at a hit of the search of all four sides
(`perimeter_circle_intersection`), and each later rim step is one call
of `rim_step`: the nearest hit of that search more than tol ahead,
counter-clockwise, on one side or round a corner alike.  The search
solves only the sides within reach of the circle, one side away from the
corners.  The walk's state is small: the mode, the rim
arclength, the arclength the current episode has covered, whether the
walk has escaped its start, and the two closure targets of a walk that
starts on the rim (below).  Every test point of either mode is yielded
at one site, and the closure tests run there after a decision step or a
rim exit; an interior rim point runs only the test of escape from the
start pair, so that a lap that is one long rim episode escapes too.

Closure.  A walk closes when it returns within epsilon of its start pair
after first moving at least 2 epsilon away.  A start pair bisected on
the rim can sit where the returning walk reaches the rim, out of that
reach (1.4 epsilon on a half-plane in `tests/test_walk_golden.py`), and
the lap would then repeat until the budget ran out.  So a walk whose
first decision step leaves the domain, and which therefore starts with a
rim episode, has two more targets.  The anchor is the pair its first
in-domain decision step starts from, usually the last rim point of that
episode and its exit: the walk closes when it returns within epsilon of
the anchor after moving at least 2 epsilon from it.  And once it has
moved at least 2 epsilon from its start pair or from the anchor, a rim
entry on the arclength the first episode covered closes it, before that
entry's query: from there the walk would repeat a stretch of rim it has
sampled.  The second target usually closes such a walk first, one lap
after it began; the anchor closes a lap begun at the exit of the first
episode.  Why a lap meets them: every lap leaves that stretch of rim at
its first exterior point, less than epsilon past the crossing, so its
exit lies within epsilon of the anchor's; and a lap coming back along
the boundary to the start enters the rim near the first episode's start,
within its arclength.  The start pair arms the second target too:
beside a rim edge shorter than epsilon a walk can leave its start pair
but never its anchor (`tests/test_walk.py`), and armed by the anchor
alone the target let such a walk alternate a rim exit and one decision
step until the budget ran out.  Neither target is proved for every
shape; `tests/test_walk.py` checks on generated clipped half-planes and
ellipses wider than 2 epsilon that the walk closes within 1.2 laps.
For every other walk the anchor would be the start pair itself, and
neither target is kept.

The geometry never sees the oracle.  The explicit-seed check, the
bisection (`_bisect`) and the walk are generators of the points they
want labelled, each sent the label of the point it yielded last, so a
walk can be replayed from a logged run's labels alone.  `run_edge`
builds one `_Budget` per run and drives the three in turn with
`_Budget.drive`, the one site that queries and logs: it queries each
yielded point through `_Budget.query`, appends it and its label to the
log, and sends the label back.  Only the seed scan, whose probes are not
logged, calls `_Budget.query` itself.  So every query of a run passes
through `_Budget.query`, and `run_edge` reads `_Budget.used` between the
three drives for the per-phase counts and builds the estimate once.

Each step is one pass of float arithmetic, and the containment and
closure tests are inline comparisons.  Each step leaves the pair epsilon
apart, and the bisection leaves it between epsilon/2 and epsilon apart
unless the seeds start closer.  So the two circles always cross, and a
decision step takes the one point `circle_circle_intersection` returns,
the crossing left of inner-to-outer, about 0.87 epsilon left of the
pair.  And a step cannot repeat the last test point: the next one lies
epsilon from both ends of the pair, one of them the last test point, and
epsilon exceeds twice the geometric tolerance.  `EdgeConfig.validate_for` refuses
explicit seeds within that tolerance of each other, an epsilon of at
most twice it, one too small for the float spacing of the domain's
coordinates to resolve, and one too small for a rim step to resolve
against the side it stands on, so the pair never degenerates.  A budget
death or a geometric failure anywhere in the walk, rim episodes
included, ends it with termination `budget_exhausted` or `failed` and
keeps the partial estimate.

Point contract: every point is a plain `(x, y)` tuple, except in the
estimate's `inner` and `outer`, which stay lists of `Point2` because the
benchmark reads their `.x` and `.y`; `BoundaryEstimate._side` builds
them on first use, the one place that builds a `Point2`.  The seed
scan's probes, the explicit seeds, every candidate point, rim hit and
bisection midpoint are plain tuples, and the run queries each as it is.
The run logs every query after the seed scan, in order and with its
label: the explicit seeds, the bisection midpoints, then each walk
point, decision or rim; a budget death raises before its query reaches
the oracle.  The log has its final form from the first query:
`_Budget.xy`, one `array('d')` of interleaved x and y, which the driver
extends with the tuple it queried, beside the `labels` bytearray, and
`run_edge` hands both to the `BoundaryEstimate` as they are.  So neither
a run nor its estimate holds a Python object per query: a finished
estimate keeps 17 bytes a point with its label, a run peaks at about
18, and the cyclic GC has nothing of theirs to traverse.  A `Point2` is
a tuple subclass, which the GC never untracks, so a log of them would be
traversed in every full collection for as long as the estimate lives.
The scan's probes are the first `seed_queries` points of `seed_scan`,
all with one label but the last, so the estimate keeps only that label,
and `BoundaryEstimate.query_log` regenerates them.  So the estimate
holds every query of a run in memory that grows with the boundary, not
with the scan, and `edgewalk run --log-queries` writes points.csv and
queries.csv from it in one pass, formatting each walk point once.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Generator, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter

from .classifier import Classifier
from .errors import (
    BudgetExhaustedError,
    FullPerimeterError,
    GeometricFailureError,
    InputError,
    NoBoundaryFoundError,
)
from .geometry import (
    XY,
    Domain,
    Point2,
    circle_circle_intersection,
    distance,
    midpoint,
    perimeter_circle_intersection,
    rim_step,
)

# select_forward stays importable here: bench/tracing.py wraps walk.select_forward
from .geometry import select_forward  # noqa: F401


# Point2(x, y) runs a Python-level __new__; this builds the same Point2
# from an (x, y) tuple in C, in about half the time
_new_point = tuple.__new__


def _pairs(coords) -> Iterator[XY]:
    """The (x, y) tuples of an iterable of interleaved coordinates."""
    it = iter(coords)
    return zip(it, it)


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
        """Refuse, before any query, a configuration the walk cannot run.

        epsilon has three floors.  The bisection may leave the pair
        epsilon/2 apart, so epsilon must exceed twice the geometric
        tolerance, or the circles around the pair have no intersection to
        step to.

        The coordinates must resolve epsilon.  Let s be the float spacing
        at the domain's largest coordinate magnitude, `math.ulp` of it;
        no coordinate in the domain is spaced more coarsely.  Every point
        the run builds (a bisection midpoint, a circle intersection, a rim
        hit) is rounded to that grid, up to s/2 in each coordinate, about
        s in all with the rounding of its inputs.  So bisection takes a gap
        g to at most g/2 + s: it stalls near 2 s and never brings a pair
        within an epsilon of about s or less, and the run spends its whole
        budget on midpoints that round onto an endpoint.  A distance the
        walk tests against epsilon or 2 epsilon (bracket, escape and
        closure) is off by up to about 2 s.  epsilon above 16 s keeps that
        within an eighth of epsilon, the margin the rim floor below keeps
        too.  Measured on a disc in a square far from the origin: at 1 s
        the budget ends in the bisection, at 2 s and 4 s the walk closes
        after about 17% and 3% more walk queries than the 2.2 per epsilon
        of boundary it takes far above the floor, and from 8 s on it takes
        those.

        And a rim step must resolve epsilon against the side it
        stands on.  `perimeter_circle_intersection` solves
        a t^2 + b t + c = 0 for a side of length L, a = L^2, around a
        centre at distance f, at most
        about L, from the side's start: the discriminant b^2 - 4ac, which
        should be 4 L^2 epsilon^2, is the difference of two terms of about
        4 L^2 f^2.  Rounding f^2, c, a, b, b^2 and 4ac, each off by at most
        u = 2^-53 of its value (b counts twice, being squared), leaves it
        off by up to about 7 u 4 L^2 f^2.  While that is at most a quarter
        of it, epsilon^2 >= 28 u f^2, the step comes out within about an
        eighth of epsilon; once epsilon^2 falls below about 7 u f^2 the
        discriminant may round to 0 or less, the two roots merge onto the
        centre and the walk ends failed.  So epsilon must exceed
        sqrt(28 u) L, about 5.6e-8 times the longest side.
        """
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise InputError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.epsilon <= 2.0 * domain.geom_tol:
            raise InputError(
                f"epsilon {self.epsilon:g} must exceed twice the domain's "
                f"geometric tolerance {domain.geom_tol:g}"
            )
        largest = max(
            abs(domain.x_min), abs(domain.x_max), abs(domain.y_min), abs(domain.y_max)
        )
        spacing = math.ulp(largest)
        if self.epsilon <= 16.0 * spacing:
            raise InputError(
                f"epsilon {self.epsilon:g} must exceed 16 times {spacing:g}, "
                f"the float spacing of coordinates near {largest:g}"
            )
        side = max(domain.width, domain.height)
        rim_floor = math.sqrt(28.0 * 2.0**-53) * side
        if self.epsilon <= rim_floor:
            raise InputError(
                f"epsilon {self.epsilon:g} must exceed {rim_floor:g}, the "
                f"smallest rim step resolved on a side of length {side:g}"
            )
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
    """Ordered boundary localization produced by a run.

    xy and labels log every query after the seed scan in order: the
    explicit seeds, the bisection midpoints, then walk_queries walk
    points.  xy packs their coordinates, x then y for each query; it is
    the run's own log, filled as the run queried, so neither the run nor
    the estimate holds an object per point for the cyclic GC to
    traverse.  The readers below yield (x, y) tuples from it.  The walk
    starts from pair, the bracket (inner, outer).  A scan keeps only
    scan_label, the label of all its probes but the last (None with
    explicit seeds).  inner and outer, lists of Point2, are built on
    first use.  A walk that ends in a geometric failure keeps its message
    in failure.
    """

    xy: array
    labels: bytearray
    pair: tuple[XY, XY]
    scan_label: int | None
    epsilon: float
    termination: Termination
    total_queries: int
    seed_queries: int
    bisection_queries: int
    walk_queries: int
    failure: str | None

    def walk_log(self) -> Iterator[tuple[XY, int]]:
        """The walk's points as (point, label), in query order."""
        start = len(self.labels) - self.walk_queries
        return zip(
            _pairs(islice(self.xy, 2 * start, None)),
            islice(self.labels, start, None),
        )

    def _side(self, label: int) -> list[Point2]:
        """The bracket point, then the walk's points, of one label, as Point2."""
        walk = (p for p, lab in self.walk_log() if lab == label)
        return [_new_point(Point2, p) for p in chain((self.pair[1 - label],), walk)]

    @cached_property
    def inner(self) -> list[Point2]:
        return self._side(1)

    @cached_property
    def outer(self) -> list[Point2]:
        return self._side(0)

    def points_in_order(self) -> list[tuple[XY, int]]:
        """The pair, then the walk's points, as (point, label), in append order."""
        return [(self.pair[0], 1), (self.pair[1], 0), *self.walk_log()]

    def query_log(self, domain: Domain) -> Iterator[tuple[XY, int]]:
        """Every query of the run over domain, as (point, label), in order."""
        if self.scan_label is not None:
            scan = seed_scan(domain, self.epsilon)
            yield from zip(islice(scan, self.seed_queries - 1), repeat(self.scan_label))
            yield next(scan), 1 - self.scan_label
        yield from zip(_pairs(self.xy), self.labels)


class _Budget:
    """The run's query gate, which counts oracle calls and enforces the cap.

    run_edge builds one per run.  drive is the run's one site that
    queries and logs: it runs a point generator, queries each point the
    generator yields, appends the point to xy, as the plain (x, y) tuple
    it is, and its label to labels, and sends the label back.  Only the
    seed scan, whose probes the estimate regenerates, calls query
    directly.  run_edge hands xy and labels to the estimate without
    copying.
    """

    def __init__(self, classifier: Classifier, max_queries: int):
        self.classifier = classifier
        self.domain = classifier.domain
        self.max_queries = max_queries
        self.start = classifier.query_count
        self.limit = self.start + max_queries
        self.xy = array("d")
        self.labels = bytearray()

    @property
    def used(self) -> int:
        return self.classifier.query_count - self.start

    def query(self, p: XY) -> int:
        if self.classifier.query_count >= self.limit:
            raise BudgetExhaustedError(
                f"query budget of {self.max_queries} exhausted"
            )
        return self.classifier.query(p)

    def drive(self, points: Generator[XY, int, object]) -> object:
        """Query and log each point points yields, sending back its label.

        Returns what the generator returns.  A budget death raises
        BudgetExhaustedError before its point reaches the oracle or the
        log, and an error the generator raises propagates.
        """
        query = self.query
        add_point, add_label = self.xy.extend, self.labels.append
        send = points.send
        label = None  # send(None) starts the generator
        while True:
            try:
                p = send(label)
            except StopIteration as stop:
                return stop.value
            label = query(p)
            add_point(p)
            add_label(label)


def _check_seeds(x_in: XY, x_out: XY) -> Generator[XY, int, None]:
    """Yield the explicit seeds; raise InputError unless each has its stated label."""
    for name, p, want in (("interior", x_in, 1), ("exterior", x_out, 0)):
        label = yield p
        if label != want:
            raise InputError(f"{name} seed {p} has label {label}")


def _bisect(x_in: XY, x_out: XY, epsilon: float) -> Generator[XY, int, tuple[XY, XY]]:
    """Shrink an opposite-label pair until the endpoints are within epsilon.

    The caller vouches for the seed labels (they are not re-queried here)
    and for a positive epsilon.  Each iteration yields the midpoint of the
    current pair, is sent its label, and replaces the endpoint of matching
    label, halving the gap; the loop runs while the gap is at least
    epsilon.  Returns the refined (inner, outer) pair.
    """
    while distance(x_in, x_out) >= epsilon:
        m = midpoint(x_in, x_out)
        if (yield m) == 0:
            x_out = m
        else:
            x_in = m
    return x_in, x_out


def _rim_entry(
    domain: Domain, in_end: XY, out_end: XY, epsilon: float
) -> tuple[XY, float]:
    """Where a rim episode starts: (point, arclength).

    Of the perimeter points at distance epsilon from in_end, the episode
    starts at the one farther from out_end, the first of equals.  They
    are sorted by arclength, and a hit within tol of the last one kept is
    dropped, and so is the last when within tol of the first: where two
    sides meet at a corner, or in a tie, which hit the entry takes then
    does not depend on the order the search found them in.
    """
    tol = domain.geom_tol
    cands: list[tuple[XY, float]] = []
    for p, s in sorted(
        perimeter_circle_intersection(domain, in_end, epsilon), key=itemgetter(1)
    ):
        if not cands or distance(cands[-1][0], p) > tol:
            cands.append((p, s))
    if len(cands) > 1 and distance(cands[0][0], cands[-1][0]) <= tol:
        cands.pop()
    if not cands:
        raise GeometricFailureError(
            f"no perimeter point at distance {epsilon} from {in_end}"
        )
    return max(cands, key=lambda ps: distance(ps[0], out_end))


def _walk_points(
    domain: Domain, pair: tuple[XY, XY], epsilon: float
) -> Generator[XY, int, None]:
    """Trace the boundary in epsilon steps from a tightened bracket.

    A generator: it yields each test point and is sent its label.  pair
    is the bracket (inner, outer) the walk starts from.  The walk runs in
    one of two modes.  A decision step intersects the epsilon-circles
    around the latest inner and outer points and takes the intersection
    lying ahead of the pair (on the left of the inner-to-outer
    direction), the one `circle_circle_intersection` returns.  When that
    point falls outside the domain, a rim episode begins where
    `_rim_entry` puts it, and the walk steps counter-clockwise along the
    perimeter, each step the nearest perimeter point more than tol ahead
    at distance epsilon, as `rim_step` finds it, until it finds an
    exterior point and resumes decision steps.  A rim step with no point
    ahead raises GeometricFailureError, and an episode whose steps add up
    to the whole perimeter raises FullPerimeterError.

    Every test point is yielded at one site.  The closure tests run there
    after a decision step or a rim exit, and the escape test alone after
    an interior rim point: the walk returns once it has first escaped the
    start bracket (by two epsilon or more) and the latest point then comes
    back to within epsilon of a start point.  A walk whose first decision
    step leaves the domain also returns on its anchor, the pair its first
    in-domain decision step starts from, in the same way, and, once it
    has escaped the start bracket or the anchor, at a rim entry on the
    arclength its first rim episode covered (see the module docstring).
    Walks on features too small to escape go on until the caller stops
    sending labels.  A geometric failure raises GeometricFailureError.
    """
    tol = domain.geom_tol
    period = domain.perimeter
    hypot = math.hypot
    x_lo, x_hi = domain.x_min - tol, domain.x_max + tol
    y_lo, y_hi = domain.y_min - tol, domain.y_max + tol
    # the latest inner and outer points, the pair each decision step starts from
    in_end, out_end = pair
    (xi0, yi0), (xo0, yo0) = pair
    steps = 0
    escaped = False
    # a walk whose first decision step leaves the domain starts with a rim
    # episode and gets two more closure targets: the anchor pair
    # (xai, yai), (xao, yao), where its first in-domain decision step
    # starts, and the arclength its first rim episode covered, first_span
    # counter-clockwise from s_first (negative until that episode ends).
    # Any other walk's anchor would be the start pair.
    seek_anchor = anchored = anchor_escaped = False
    xai = yai = xao = yao = s_first = 0.0
    first_span = -1.0
    # rim mode: the walk stands on the rim at in_end, arclength s_cur, and
    # has moved span along it since the episode began
    on_rim = False
    s_cur = span = 0.0
    while True:
        if on_rim:
            step = rim_step(domain, in_end, s_cur, epsilon)
            if step is None:
                raise GeometricFailureError(
                    f"domain walk found no forward perimeter point from {in_end}"
                )
            x_test, s_cur, d = step
            span += d
            if span >= period:
                raise FullPerimeterError(
                    "perimeter walk traversed the full domain boundary without "
                    "leaving the interior set"
                )
        else:
            x_test = circle_circle_intersection(in_end, out_end, epsilon, tol)
            x, y = x_test
            if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
                # the boundary ran off the domain: enter the rim
                x_test, s_cur = _rim_entry(domain, in_end, out_end, epsilon)
                if steps == 0:
                    seek_anchor = True
                    s_first = s_cur
                elif (escaped or anchor_escaped) and (
                    (s_cur - s_first) % period <= first_span
                ):
                    # back on the rim the first episode walked
                    return
                span = 0.0
                on_rim = True
            elif seek_anchor:
                seek_anchor = False
                anchored = True
                (xai, yai), (xao, yao) = in_end, out_end
        # the one site: the plain tuple the geometry built goes out to be
        # queried, and its label comes back
        steps += 1
        if (yield x_test) == 1:
            in_end = x_test
            if on_rim:
                # a lap that is one long rim episode must escape too
                if not escaped:
                    x, y = x_test
                    d = min(hypot(x - xi0, y - yi0), hypot(x - xo0, y - yo0))
                    escaped = d >= 2.0 * epsilon
                continue
        else:
            out_end = x_test
            if on_rim:
                # the rim exit: decision steps resume from here
                on_rim = False
                if seek_anchor and first_span < 0.0:
                    first_span = span
                x, y = x_test
        # distance of the latest point, (x, y), to the nearer start point
        back_dist = hypot(x - xi0, y - yi0)
        to_outer = hypot(x - xo0, y - yo0)
        if to_outer < back_dist:
            back_dist = to_outer
        if escaped:
            if back_dist <= epsilon:
                return
        elif back_dist >= 2.0 * epsilon:
            escaped = True
        if anchored:
            back_dist = hypot(x - xai, y - yai)
            to_outer = hypot(x - xao, y - yao)
            if to_outer < back_dist:
                back_dist = to_outer
            if anchor_escaped:
                if back_dist <= epsilon:
                    return
            elif back_dist >= 2.0 * epsilon:
                anchor_escaped = True


def seed_scan(domain: Domain, epsilon: float) -> Iterator[XY]:
    """The seed scan's probes in order, coarse to fine.

    The corners, the center, then the cell centers of 2^k x 2^k grids,
    k = 1, 2, ..., row by row, while the cells are no finer than epsilon.
    Every probe is a plain (x, y) tuple.
    """
    yield from domain.corners()
    yield domain.center
    n = 2
    while max(domain.width, domain.height) / n >= epsilon:
        for j in range(n):
            y = domain.y_min + (2 * j + 1) * domain.height / (2 * n)
            for i in range(n):
                x = domain.x_min + (2 * i + 1) * domain.width / (2 * n)
                yield (x, y)
        n *= 2


def _seed_search(
    budget: _Budget, epsilon: float
) -> tuple[tuple[XY, XY], int]:
    """Find one point of each label by querying `seed_scan` until both are seen.

    Every probe but the last has the first probe's label.  Returns the
    closest opposite-label pair among them, (inner, outer), and that
    first label.  The pair is the last probe and the nearest earlier
    one, ties going to the latest, so the scan is regenerated to find it.
    """
    domain = budget.domain
    scan = seed_scan(domain, epsilon)
    try:
        first = budget.query(next(scan))
        count = 1
        for last in scan:
            count += 1
            if budget.query(last) != first:
                break
        else:
            raise NoBoundaryFoundError(
                f"single-label domain down to cells finer than epsilon "
                f"({epsilon}); no boundary to trace"
            )
    except BudgetExhaustedError as exc:
        raise NoBoundaryFoundError(
            f"seed scan exhausted the query budget after {budget.used} "
            f"queries without seeing both labels"
        ) from exc
    best_d = math.inf
    for p in islice(seed_scan(domain, epsilon), count - 1):
        d = distance(p, last)
        if d <= best_d:
            best_d, nearest = d, p
    return ((nearest, last) if first == 1 else (last, nearest)), first


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
        x_in = tuple(map(float, config.seed_interior))
        x_out = tuple(map(float, config.seed_exterior))
        scan_label = None
        budget.drive(_check_seeds(x_in, x_out))
    else:
        (x_in, x_out), scan_label = _seed_search(budget, epsilon)
    seed_queries = budget.used
    x_in, x_out = budget.drive(_bisect(x_in, x_out, epsilon))
    bisection_queries = budget.used - seed_queries
    termination, failure = Termination.CLOSED_LOOP, None
    try:
        budget.drive(_walk_points(c.domain, (x_in, x_out), epsilon))
    except BudgetExhaustedError:
        termination = Termination.BUDGET_EXHAUSTED
    except GeometricFailureError as exc:
        termination, failure = Termination.FAILED, str(exc)
    return BoundaryEstimate(
        xy=budget.xy,
        labels=budget.labels,
        pair=(x_in, x_out),
        scan_label=scan_label,
        epsilon=epsilon,
        termination=termination,
        total_queries=budget.used,
        seed_queries=seed_queries,
        bisection_queries=bisection_queries,
        walk_queries=budget.used - seed_queries - bisection_queries,
        failure=failure,
    )
