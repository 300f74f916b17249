"""Planar primitives used by the boundary walks.

Everything operates on plain floats.  The walk code never needs arrays here;
numpy enters only at the metrics layer where point sets get large.

Perimeter convention: a rectangular domain's boundary is parameterized by
arclength s in [0, P), counter-clockwise, starting at the lower-left corner
(x_min, y_min).  All perimeter-related helpers share this convention.

A Domain is immutable, so it computes its derived constants (perimeter,
geometric tolerance and edges) once, on first use, and keeps them; the
walk reads them on every perimeter step.

A walk step is one pass of float arithmetic: `circle_circle_intersection`
for the step between two epsilon-circles, which returns the one forward
point, and `rim_step` for a counter-clockwise step along the rim, the
nearest hit ahead among those `perimeter_circle_intersection` finds.
That search tries all four sides but solves the segment-circle quadratic
only for those whose line lies within the circle's reach; it returns the
hits as it finds them, side by side, and the walk's rim entry and
`rim_step` each pick the one they need.

Point contract: every point is a plain `(x, y)` tuple, except in a
walk estimate's `inner` and `outer`, which stay lists of `Point2`
because the benchmark reads their `.x` and `.y`.  The step functions and
`midpoint` take any (x, y) pair and return plain tuples, and so do a
domain's `corners()` and `center`.  A plain tuple is cheaper to build
than a `Point2`, and cheaper to keep: the cyclic GC stops tracking a
tuple of floats, but never a `Point2`, a tuple subclass, so every
`Point2` kept is traversed again in each full collection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import CoincidentCentersError, InputError, NoForwardCandidateError


class Point2(NamedTuple):
    x: float
    y: float


# an (x, y) point as the geometry takes and returns it; a Point2 is one too
XY = tuple[float, float]


def distance(a: XY, b: XY) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def midpoint(a: XY, b: XY) -> XY:
    return (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))


class Edge(NamedTuple):
    """One side of a domain, directed counter-clockwise.

    s_start is the arclength of start.  The remaining fields are the
    side's constants in the segment-circle quadratic: the direction
    (dx, dy) from start to the side's other end, a = dx^2 + dy^2, and the
    tolerance t_tol in units of the segment parameter.
    """

    start: XY
    length: float
    s_start: float
    dx: float
    dy: float
    a: float
    t_tol: float


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        vals = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(math.isfinite(v) for v in vals):
            raise InputError(f"domain bounds must be finite, got {vals}")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise InputError(f"domain must have positive extent, got {vals}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    @cached_property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> XY:
        return 0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max)

    @cached_property
    def geom_tol(self) -> float:
        """Geometric tolerance used for containment and dedup decisions."""
        return 1e-9 * max(1.0, self.diagonal)

    def corners(self) -> tuple[XY, XY, XY, XY]:
        """Corners counter-clockwise from the lower-left."""
        return (
            (self.x_min, self.y_min),
            (self.x_max, self.y_min),
            (self.x_max, self.y_max),
            (self.x_min, self.y_max),
        )

    @cached_property
    def edges(self) -> tuple[Edge, Edge, Edge, Edge]:
        """The four sides counter-clockwise, the bottom one first."""
        cs = self.corners()
        tol = self.geom_tol
        edges = []
        s_start = 0.0
        for i in range(4):
            a, b = cs[i], cs[(i + 1) % 4]
            length = distance(a, b)
            dx, dy = b[0] - a[0], b[1] - a[1]
            sq_len = dx * dx + dy * dy
            seg_len = math.sqrt(sq_len)
            t_tol = tol / seg_len if seg_len > 0.0 else 0.0
            edges.append(
                Edge(a, length, s_start, dx, dy, sq_len, t_tol)
            )
            s_start += length
        return tuple(edges)

    def contains(self, p: XY) -> bool:
        """Closed-rectangle membership."""
        return self.x_min <= p[0] <= self.x_max and self.y_min <= p[1] <= self.y_max


def circle_circle_intersection(c1: XY, c2: XY, r: float, tol: float) -> XY:
    """The forward point of two circles of equal radius r about c1 and c2.

    Returns the crossing on the left of the directed line c1->c2, the one
    a walk from inner end c1 and outer end c2 steps to.  Raises
    CoincidentCentersError for (nearly) coincident centers, where the
    crossings are not a finite point set, and NoForwardCandidateError
    when the centers lie 2r - tol apart or more, where the circles touch
    at most on that line or miss each other.
    """
    ux = c2[0] - c1[0]
    uy = c2[1] - c1[1]
    d = math.hypot(ux, uy)
    if d <= tol:
        raise CoincidentCentersError(
            f"circle centers {c1} and {c2} coincide within tolerance {tol}"
        )
    if d >= 2.0 * r - tol:
        raise NoForwardCandidateError(
            f"circles of radius {r} about {c1} and {c2} cross at no point "
            f"forward of them"
        )
    h = math.sqrt(r * r - 0.25 * d * d)
    # the midpoint plus the unit perpendicular of c1->c2, rotated +90
    # degrees, scaled by h
    return 0.5 * (c1[0] + c2[0]) + h * (-uy / d), 0.5 * (c1[1] + c2[1]) + h * (ux / d)


def select_forward(
    inner_end: XY, outer_end: XY, candidates: list[XY], tol: float
) -> XY:
    """Pick the candidate strictly on the forward side of the walk.

    Forward means a positive cross product of (outer_end - inner_end) with
    (candidate - inner_end).  The cross product is normalized to a signed
    perpendicular offset so the threshold is a length, comparable to tol.
    The walk does not call it: `circle_circle_intersection` returns the
    one crossing on that side, which this rule picks of the two whenever
    r exceeds 2 tol.
    """
    ix, iy = inner_end
    ux = outer_end[0] - ix
    uy = outer_end[1] - iy
    base = math.hypot(ux, uy)
    if base <= tol:
        raise CoincidentCentersError(
            f"walk endpoints {inner_end} and {outer_end} coincide within {tol}"
        )
    best: XY | None = None
    best_offset = tol
    for cand in candidates:
        offset = (ux * (cand[1] - iy) - uy * (cand[0] - ix)) / base
        if offset > best_offset:
            best = cand
            best_offset = offset
    if best is None:
        raise NoForwardCandidateError(
            f"no candidate among {candidates} lies forward of "
            f"({inner_end}, {outer_end})"
        )
    return best


def perimeter_circle_intersection(
    domain: Domain, center: XY, r: float
) -> list[tuple[XY, float]]:
    """Points where the circle around center meets the domain perimeter.

    Returns (point, arclength) pairs side by side, counter-clockwise from
    the bottom side, each side's hits in the order of its direction.  A
    side's two roots within tol of each other are one hit; hits of two
    sides at a corner are both kept.  May be empty when the circle misses
    the perimeter.  A side whose line lies farther than r + 2 tol from
    the center cannot yield a hit, so its quadratic is not solved.
    """
    tol = domain.geom_tol
    period = domain.perimeter
    reach = r + 2.0 * tol
    cx, cy = center
    rr = r * r
    # the sides whose line lies within reach, in the order of domain.edges;
    # tested on the domain's bounds, the constant coordinates of those lines
    bottom, right, top, left = domain.edges
    near = []
    if abs(cy - domain.y_min) <= reach:
        near.append(bottom)
    if abs(cx - domain.x_max) <= reach:
        near.append(right)
    if abs(cy - domain.y_max) <= reach:
        near.append(top)
    if abs(cx - domain.x_min) <= reach:
        near.append(left)
    hits: list[tuple[XY, float]] = []
    for (ax, ay), edge_len, s_edge, dx, dy, a, t_tol in near:
        # the parameters t0 <= t1 where the side's line start + t (dx, dy)
        # crosses the circle: a t^2 + b t + c = 0
        fx, fy = ax - cx, ay - cy
        b = 2.0 * (fx * dx + fy * dy)
        c = fx * fx + fy * fy - rr
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            continue
        sq = math.sqrt(disc)
        t0 = (-b - sq) / (2.0 * a)
        t1 = (-b + sq) / (2.0 * a)
        t_lo, t_hi = -t_tol, 1.0 + t_tol
        if t_lo <= t0 <= t_hi:
            t0 = 0.0 if t0 < 0.0 else 1.0 if t0 > 1.0 else t0
            hits.append(
                ((ax + t0 * dx, ay + t0 * dy), (s_edge + t0 * edge_len) % period)
            )
        else:
            t0 = None
        if t_lo <= t1 <= t_hi:
            t1 = 0.0 if t1 < 0.0 else 1.0 if t1 > 1.0 else t1
            # a second root within t_tol of the first is the same hit
            if t0 is None or abs(t0 - t1) > t_tol:
                hits.append(
                    ((ax + t1 * dx, ay + t1 * dy), (s_edge + t1 * edge_len) % period)
                )
    return hits


def rim_step(
    domain: Domain, center: XY, s: float, r: float
) -> tuple[XY, float, float] | None:
    """The perimeter walk's next rim point: (point, arclength, step).

    center is a rim point at arclength s, and the walk moves
    counter-clockwise.  Of the hits `perimeter_circle_intersection` finds,
    returns the nearest one more than tol ahead, step being the arclength
    advance from s wrapped into (-P/2, P/2]; equal steps go to the lesser
    (arclength, point).  Returns None when no hit lies ahead.
    """
    tol = domain.geom_tol
    period = domain.perimeter
    p_best = s_best = None
    d_best = math.inf
    for p, s_hit in perimeter_circle_intersection(domain, center, r):
        d = (s_hit - s) % period
        if d > 0.5 * period:
            d -= period
        if tol < d < d_best or (d == d_best and (s_hit, p) < (s_best, p_best)):
            p_best, s_best, d_best = p, s_hit, d
    return None if p_best is None else (p_best, s_best, d_best)
