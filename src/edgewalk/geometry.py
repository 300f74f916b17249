"""Planar primitives used by the boundary walks.

Everything operates on plain floats.  The walk code never needs arrays here;
numpy enters only at the metrics layer where point sets get large.

Perimeter convention: a rectangular domain's boundary is parameterized by
arclength s in [0, P), counter-clockwise, starting at the lower-left corner
(x_min, y_min).  All perimeter-related helpers share this convention.

A Domain is immutable, so it computes its derived constants (perimeter,
geometric tolerance, corners and edges) once, on first use, and keeps them;
the walk reads them on every perimeter step.

A walk step is one pass of float arithmetic: `circle_circle_intersection`
and `select_forward` for the step between two epsilon-circles,
`perimeter_circle_intersection` for a step along the rim.  Each solves its
formulas inline and builds only the points it returns.

Point contract: the step functions and `midpoint` take any (x, y) pair and
return plain `(x, y)` tuples.  Most of the points they build are thrown
away at once, and a plain tuple is cheaper to build than a `Point2`.  A
point becomes a `Point2` only when it is kept: the walk converts a point
right before it queries it, and the grid queries plain tuples and builds
a `Point2` only for the points its estimate keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
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

    s_start is the arclength of start; axis is the coordinate the side
    holds constant (1 for the horizontal sides, 0 for the vertical ones).
    The remaining fields are the side's constants in the segment-circle
    quadratic: the direction (dx, dy) from start to the side's other end,
    a = dx^2 + dy^2, and the tolerance t_tol in units of the segment
    parameter.
    """

    start: Point2
    length: float
    s_start: float
    axis: int
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
    def center(self) -> Point2:
        return Point2(0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    @cached_property
    def geom_tol(self) -> float:
        """Geometric tolerance used for containment and dedup decisions."""
        return 1e-9 * max(1.0, self.diagonal)

    def corners(self) -> tuple[Point2, Point2, Point2, Point2]:
        """Corners counter-clockwise from the lower-left."""
        return self._corners

    @cached_property
    def _corners(self) -> tuple[Point2, Point2, Point2, Point2]:
        return (
            Point2(self.x_min, self.y_min),
            Point2(self.x_max, self.y_min),
            Point2(self.x_max, self.y_max),
            Point2(self.x_min, self.y_max),
        )

    @cached_property
    def edges(self) -> tuple[Edge, Edge, Edge, Edge]:
        """The four sides counter-clockwise, the bottom one first."""
        cs = self._corners
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
                Edge(a, length, s_start, 1 - i % 2, dx, dy, sq_len, t_tol)
            )
            s_start += length
        return tuple(edges)

    def contains(self, p: XY) -> bool:
        """Closed-rectangle membership."""
        return self.x_min <= p[0] <= self.x_max and self.y_min <= p[1] <= self.y_max


def circle_circle_intersection(
    c1: XY, c2: XY, r: float, tol: float
) -> list[XY]:
    """Intersect two circles of equal radius r centered at c1 and c2.

    Returns [] when the circles are farther apart than 2r, one point at
    tangency, otherwise two points.  The two-point case lists the point on
    the left of the directed line c1->c2 first.  Raises for (nearly)
    coincident centers, where the intersection is not a finite point set.
    """
    ux = c2[0] - c1[0]
    uy = c2[1] - c1[1]
    d = math.hypot(ux, uy)
    if d <= tol:
        raise CoincidentCentersError(
            f"circle centers {c1} and {c2} coincide within tolerance {tol}"
        )
    if d > 2.0 * r + tol:
        return []
    mx = 0.5 * (c1[0] + c2[0])
    my = 0.5 * (c1[1] + c2[1])
    if d >= 2.0 * r - tol:
        return [(mx, my)]
    h = math.sqrt(r * r - 0.25 * d * d)
    # unit perpendicular of c1->c2, rotated +90 degrees, scaled by h
    hx = h * (-uy / d)
    hy = h * (ux / d)
    return [(mx + hx, my + hy), (mx - hx, my - hy)]


def select_forward(
    inner_end: XY, outer_end: XY, candidates: list[XY], tol: float
) -> XY:
    """Pick the candidate strictly on the forward side of the walk.

    Forward means a positive cross product of (outer_end - inner_end) with
    (candidate - inner_end).  The cross product is normalized to a signed
    perpendicular offset so the threshold is a length, comparable to tol.
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

    Returns (point, arclength) pairs sorted by arclength, with duplicates at
    corners merged.  May be empty when the circle misses the perimeter.
    An edge whose line lies farther than r + 2 tol from the center cannot
    yield a hit, so its quadratic is not solved.
    """
    tol = domain.geom_tol
    period = domain.perimeter
    reach = r + 2.0 * tol
    cx, cy = center
    rr = r * r
    hits: list[tuple[XY, float]] = []
    for (ax, ay), edge_len, s_edge, axis, dx, dy, a, t_tol in domain.edges:
        if abs(cy - ay if axis else cx - ax) > reach:
            continue
        # the segment start + t (dx, dy) meets the circle where
        # a t^2 + b t + c = 0, for t within t_tol of [0, 1]
        fx, fy = ax - cx, ay - cy
        b = 2.0 * (fx * dx + fy * dy)
        c = fx * fx + fy * fy - rr
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            continue
        sq = math.sqrt(disc)
        t_lo, t_hi = -t_tol, 1.0 + t_tol
        t0 = (-b - sq) / (2.0 * a)
        if t_lo <= t0 <= t_hi:
            t0 = 0.0 if t0 < 0.0 else 1.0 if t0 > 1.0 else t0
            hits.append(
                ((ax + t0 * dx, ay + t0 * dy), (s_edge + t0 * edge_len) % period)
            )
        else:
            t0 = None
        t1 = (-b + sq) / (2.0 * a)
        if t_lo <= t1 <= t_hi:
            t1 = 0.0 if t1 < 0.0 else 1.0 if t1 > 1.0 else t1
            # a second root within t_tol of the first is the same hit
            if t0 is None or abs(t0 - t1) > t_tol:
                hits.append(
                    ((ax + t1 * dx, ay + t1 * dy), (s_edge + t1 * edge_len) % period)
                )
    if len(hits) < 2:
        return hits
    if len(hits) == 2:
        # the perimeter walk's usual case: sorting and merging two hits
        # reduce to one comparison of arclengths and one of distance
        (p0, s0), (p1, s1) = hits
        if s1 < s0:
            hits.reverse()
        if math.hypot(p0[0] - p1[0], p0[1] - p1[1]) <= tol:
            del hits[1]
        return hits
    hits.sort(key=itemgetter(1))
    deduped: list[tuple[XY, float]] = []
    for p, s in hits:
        if deduped and distance(deduped[-1][0], p) <= tol:
            continue
        deduped.append((p, s))
    if len(deduped) > 1 and distance(deduped[0][0], deduped[-1][0]) <= tol:
        deduped.pop()
    return deduped


def wrapped_delta(s_from: float, s_to: float, period: float) -> float:
    """Signed arclength step from s_from to s_to, wrapped into (-P/2, P/2]."""
    d = (s_to - s_from) % period
    if d > 0.5 * period:
        d -= period
    return d
