"""Clipped shapes over the square [-1, 1]^2, and what a walk around one covers.

A clipped shape is the part of a half-plane a x + b y < c (a, b a unit
normal) or of a rotated ellipse that lies in the square.  Both are convex,
so the outline of a clipped shape is a convex polygon, the ellipse sampled
at `ELLIPSE_VERTICES` points.  Its vertices on the rim are the points
where the shape's boundary crosses the rim and the square's corners inside
the shape.  The tests that walk these shapes share the measures here:

- `Clipped.wide(epsilon)`: the shape is a feature wider than 2 epsilon, on
  both sides of its boundary (see there);
- `laps(points, shape)`: how many times the walk went round;
- `rim_vertex_gaps(points, outline)`: how far each rim vertex lies from the
  nearest walk point, with its interior angle;
- `decision_step_lengths(points, domain)`: how far apart each two
  consecutive decision points of a walk lie, on any domain;
- `shapes()`: a hypothesis strategy drawing a clipped half-plane or ellipse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from hypothesis import strategies as st

from edgewalk.geometry import Domain

SQUARE = Domain(-1.0, 1.0, -1.0, 1.0)
_CORNERS = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
ELLIPSE_VERTICES = 360


def _clip(poly, a, b, c):
    """Sutherland-Hodgman: the part of a convex polygon with a x + b y <= c."""
    out = []
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= 0.0:
            out.append(p)
        if (fp < 0.0 < fq) or (fq < 0.0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _on_rim(v):
    return max(abs(v[0]), abs(v[1])) >= 1.0 - 1e-12


def _min_width(poly):
    """Smallest width of a convex polygon: across some edge, to the farthest vertex."""
    best = math.inf
    for i, q in enumerate(poly):
        p = poly[i - 1]
        length = math.dist(p, q)
        if length < 1e-12:
            continue
        nx, ny = (q[1] - p[1]) / length, (p[0] - q[0]) / length
        best = min(
            best, max(abs((v[0] - p[0]) * nx + (v[1] - p[1]) * ny) for v in poly)
        )
    return best


@dataclass(frozen=True)
class Clipped:
    """A clipped shape: its field and threshold, and the outline of its inside.

    crossings are the points where the shape's boundary crosses the rim;
    exterior is the outline of the square's part outside a half-plane, and
    None for an ellipse, whose outside is not convex.  boundary_step(p, q)
    is the signed arclength from near p to near q along the shape's own
    boundary, counter-clockwise round the inside positive.
    """

    fn: object
    threshold: float
    outline: list
    exterior: list | None
    crossings: list
    rim_clearance: float
    tightest_turn: float
    boundary_step: object

    def wide(self, epsilon):
        """Whether the shape is a feature wider than 2 epsilon on both sides.

        The inside, and for a half-plane the outside, is wider than
        2 epsilon in every direction; the boundary turns no tighter than a
        circle of radius 2 epsilon (for an ellipse, at the ends of its major
        axis); every crossing lies more than 2 epsilon from every corner
        and from every other crossing, so no wedge between the boundary and
        a side, or between two crossings, is narrower than that along the
        rim; and an ellipse that does not cross the rim keeps more than
        2 epsilon from it.
        """
        limit = 2.0 * epsilon
        if self.tightest_turn <= limit:
            return False
        if _min_width(self.outline) <= limit:
            return False
        if self.exterior is not None and _min_width(self.exterior) <= limit:
            return False
        for i, p in enumerate(self.crossings):
            others = [*self.crossings[:i], *self.crossings[i + 1 :], *_CORNERS]
            if any(math.dist(p, q) <= limit for q in others):
                return False
        return bool(self.crossings) or self.rim_clearance > limit

    def lengths(self):
        """(rim, boundary): the outline's length along the rim and along the shape."""
        rim = boundary = 0.0
        for i, q in enumerate(self.outline):
            p = self.outline[i - 1]
            # a rim edge runs along one side: both ends on it
            if any(
                abs(p[k]) >= 1.0 - 1e-12 and abs(p[k] - q[k]) <= 1e-12 for k in (0, 1)
            ):
                rim += math.dist(p, q)
            else:
                boundary += math.dist(p, q)
        return rim, boundary


def halfplane(theta, offset):
    """a x + b y < c, (a, b) at angle theta, c = offset * (|a| + |b|)."""
    a, b = math.cos(theta), math.sin(theta)
    c = offset * (abs(a) + abs(b))
    inside = _clip(_CORNERS, a, b, c)
    outside = _clip(_CORNERS, -a, -b, -c)
    crossings = [v for v in inside if v in outside]

    def boundary_step(p, q):
        # along the line's counter-clockwise tangent (-b, a)
        return a * (q[1] - p[1]) - b * (q[0] - p[0])

    return Clipped(
        lambda x, y: a * x + b * y,
        c,
        inside,
        outside,
        crossings,
        0.0,
        math.inf,
        boundary_step,
    )


def ellipse(cx, cy, ra, rb, phi):
    """Inside the ellipse with centre (cx, cy), semi-axes ra, rb, turned by phi."""
    co, si = math.cos(phi), math.sin(phi)

    def frame(x, y):
        dx, dy = x - cx, y - cy
        return (dx * co + dy * si) / ra, (-dx * si + dy * co) / rb

    def fn(x, y):
        u, v = frame(x, y)
        return u * u + v * v

    def boundary_step(p, q):
        # the ellipse's parameter t, where (u, v) = (cos t, sin t), grows
        # counter-clockwise at speed |d(x, y)/dt|
        tp = math.atan2(*reversed(frame(*p)))
        dt = math.atan2(*reversed(frame(*q))) - tp
        dt = (dt + math.pi) % (2.0 * math.pi) - math.pi
        t = tp + 0.5 * dt
        return math.hypot(ra * math.sin(t), rb * math.cos(t)) * dt

    ring = []
    for k in range(ELLIPSE_VERTICES):
        t = 2.0 * math.pi * k / ELLIPSE_VERTICES
        u, v = ra * math.cos(t), rb * math.sin(t)
        ring.append((cx + u * co - v * si, cy + u * si + v * co))
    clearance = min(1.0 - max(abs(x), abs(y)) for x, y in ring)
    inside = ring
    for a, b in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
        inside = _clip(inside, a, b, 1.0)
    crossings = [
        v
        for v in inside
        if _on_rim(v) and all(math.dist(v, q) > 1e-9 for q in _CORNERS)
    ]
    # the radius of curvature at the ends of the major axis
    turn = min(ra, rb) ** 2 / max(ra, rb)
    return Clipped(fn, 1.0, inside, None, crossings, clearance, turn, boundary_step)


@st.composite
def shapes(draw):
    """A clipped half-plane or rotated ellipse; either may run off the square."""
    if draw(st.booleans()):
        return halfplane(
            draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(-0.9, 0.9))
        )
    centre = draw(st.floats(-0.8, 0.8)), draw(st.floats(-0.8, 0.8))
    axes = draw(st.floats(0.1, 0.6)), draw(st.floats(0.1, 0.6))
    return ellipse(*centre, *axes, draw(st.floats(0.0, math.pi)))


def _rim_arclength(p):
    """Arclength of a rim point, counter-clockwise from (-1, -1)."""
    x, y = p
    if y == -1.0:
        return x + 1.0
    if x == 1.0:
        return 3.0 + y
    if y == 1.0:
        return 5.0 - x
    return 7.0 - y


def _is_rim_point(p):
    return p[0] in (-1.0, 1.0) or p[1] in (-1.0, 1.0)


def laps(points, shape):
    """How far the walk's points went round the shape's outline, in laps.

    A step between two rim points advances by their arclength along the
    rim, any other step by the arclength along the shape's own boundary
    (`Clipped.boundary_step`), which is exact where the points lie near
    that boundary: every decision point, and a rim point next to one lies
    at a crossing.  No point is projected onto the outline, so a point in
    a thin wedge, near two of its sides, cannot be placed on the wrong one.
    The laps are the net advance over the outline length.
    """
    travelled = 0.0
    for p, q in zip(points, points[1:]):
        if _is_rim_point(p) and _is_rim_point(q):
            travelled += (_rim_arclength(q) - _rim_arclength(p) + 4.0) % 8.0 - 4.0
        else:
            travelled += shape.boundary_step(p, q)
    outline = shape.outline
    length = sum(math.dist(outline[i - 1], v) for i, v in enumerate(outline))
    return abs(travelled) / length


def rim_vertex_gaps(points, outline):
    """(distance to the nearest walk point, interior angle in degrees) per rim vertex."""
    gaps = []
    for i, v in enumerate(outline):
        if not _on_rim(v):
            continue
        p, q = outline[i - 1], outline[(i + 1) % len(outline)]
        u = (p[0] - v[0], p[1] - v[1])
        w = (q[0] - v[0], q[1] - v[1])
        cos = (u[0] * w[0] + u[1] * w[1]) / (math.hypot(*u) * math.hypot(*w))
        angle = math.degrees(math.acos(max(-1.0, min(1.0, cos))))
        gap = min(math.dist(v, point) for point in points)
        gaps.append((gap, angle))
    return gaps


def decision_step_lengths(points, domain):
    """The distance between each two consecutive decision points of a walk.

    points are the estimate's points in append order.  The first two are
    the bracket pair; a rim point lies exactly on a side of the domain;
    every other point is a decision step's test point.  Each decision
    step's test point lies epsilon from both ends of the pair it starts
    from, and the previous point is one of those ends.
    """

    def on_rim(p):
        return p[0] in (domain.x_min, domain.x_max) or p[1] in (domain.y_min, domain.y_max)

    walked = points[2:]
    return [
        math.dist(p, q)
        for p, q in zip(walked, walked[1:])
        if not on_rim(p) and not on_rim(q)
    ]
