"""The walk's per-step geometry against its straightforward versions.

`perimeter_circle_intersection` reads the sides from the domain's cached
`edges`, skips every side whose line lies out of the circle's reach and
solves the quadratic inline; `circle_circle_intersection`, the walk's
forward step, and `select_forward`, which names the forward point,
compute the midpoint, the distance and the offsets inline.  The
versions below solve all four sides, build the midpoint as a point and
call `distance` and the `cross` below; they are the oracle, and the fast
ones must return exactly equal results and raise the same errors.  `step_along_side`, the perimeter walk's step
from a centre on one side, must return the very hit that the full search
plus the nearest-ahead rule picks, bit for bit, whenever it does not
leave the step to them.
"""

import math
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from edgewalk.errors import CoincidentCentersError, NoForwardCandidateError
from edgewalk.geometry import (
    Domain,
    Point2,
    circle_circle_intersection,
    distance,
    midpoint,
    perimeter_circle_intersection,
    select_forward,
    step_along_side,
)


def cross(o, a, b):
    """Cross product of (a - o) x (b - o); positive when o->a->b turns left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def test_cross_sign_is_left_turn():
    o = Point2(0.0, 0.0)
    a = Point2(1.0, 0.0)
    assert cross(o, a, Point2(1.0, 1.0)) > 0
    assert cross(o, a, Point2(1.0, -1.0)) < 0
    assert cross(o, a, Point2(2.0, 0.0)) == 0.0


def point_at(dom, s):
    """Perimeter point at arclength s, for s in [0, P)."""
    w, h = dom.width, dom.height
    if s <= w:
        return Point2(dom.x_min + s, dom.y_min)
    s -= w
    if s <= h:
        return Point2(dom.x_max, dom.y_min + s)
    s -= h
    if s <= w:
        return Point2(dom.x_max - s, dom.y_max)
    return Point2(dom.x_min, dom.y_max - (s - w))


def oracle_circle_circle_intersection(c1, c2, r, tol):
    d = distance(c1, c2)
    if d <= tol:
        raise CoincidentCentersError(
            f"circle centers {c1} and {c2} coincide within tolerance {tol}"
        )
    if d > 2.0 * r + tol:
        return []
    mid = midpoint(c1, c2)
    if d >= 2.0 * r - tol:
        return [mid]
    h = math.sqrt(r * r - 0.25 * d * d)
    px = -(c2[1] - c1[1]) / d
    py = (c2[0] - c1[0]) / d
    return [
        (mid[0] + h * px, mid[1] + h * py),
        (mid[0] - h * px, mid[1] - h * py),
    ]


def oracle_select_forward(inner_end, outer_end, candidates, tol):
    base = distance(inner_end, outer_end)
    if base <= tol:
        raise CoincidentCentersError(
            f"walk endpoints {inner_end} and {outer_end} coincide within {tol}"
        )
    best = None
    best_offset = tol
    for cand in candidates:
        offset = cross(inner_end, outer_end, cand) / base
        if offset > best_offset:
            best = cand
            best_offset = offset
    if best is None:
        raise NoForwardCandidateError(
            f"no candidate among {candidates} lies forward of "
            f"({inner_end}, {outer_end})"
        )
    return best


def _oracle_segment_circle_hits(ax, ay, bx, by, center, r, tol):
    dx, dy = bx - ax, by - ay
    fx, fy = ax - center[0], ay - center[1]
    a = dx * dx + dy * dy
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - r * r
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    seg_len = math.sqrt(a)
    t_tol = tol / seg_len if seg_len > 0.0 else 0.0
    out = []
    for t in ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)):
        if -t_tol <= t <= 1.0 + t_tol:
            out.append(min(max(t, 0.0), 1.0))
    if len(out) == 2 and abs(out[0] - out[1]) <= t_tol:
        out.pop()
    return out


def oracle_perimeter_circle_intersection(domain, center, r):
    tol = 1e-9 * max(1.0, domain.diagonal)
    perimeter = 2.0 * (domain.width + domain.height)
    cs = (
        Point2(domain.x_min, domain.y_min),
        Point2(domain.x_max, domain.y_min),
        Point2(domain.x_max, domain.y_max),
        Point2(domain.x_min, domain.y_max),
    )
    hits = []
    s_edge = 0.0
    for i in range(4):
        a, b = cs[i], cs[(i + 1) % 4]
        edge_len = distance(a, b)
        for t in _oracle_segment_circle_hits(a[0], a[1], b[0], b[1], center, r, tol):
            p = Point2(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            hits.append((p, (s_edge + t * edge_len) % perimeter))
        s_edge += edge_len
    hits.sort(key=lambda h: h[1])
    deduped = []
    for p, s in hits:
        if deduped and distance(deduped[-1][0], p) <= tol:
            continue
        deduped.append((p, s))
    if len(deduped) > 1 and distance(deduped[0][0], deduped[-1][0]) <= tol:
        deduped.pop()
    return deduped


@st.composite
def domains(draw):
    """Offset rectangles with aspect ratios from 1:100 to 100:1."""
    x0 = draw(st.floats(-1e3, 1e3))
    y0 = draw(st.floats(-1e3, 1e3))
    width = 10.0 ** draw(st.floats(-2.0, 2.0))
    height = width * 10.0 ** draw(st.floats(-2.0, 2.0))
    return Domain(x0, x0 + width, y0, y0 + height)


@st.composite
def centres(draw, dom):
    """A point inside, on the rim, at a corner or outside the domain."""
    kind = draw(st.sampled_from(["inside", "rim", "corner", "outside"]))
    if kind == "corner":
        return draw(st.sampled_from(dom.corners()))
    if kind == "rim":
        s = draw(st.floats(0.0, dom.perimeter, exclude_max=True))
        return point_at(dom, s)
    lo, hi = (0.0, 1.0) if kind == "inside" else (-0.5, 1.5)
    u = draw(st.floats(lo, hi))
    v = draw(st.floats(lo, hi))
    return Point2(dom.x_min + u * dom.width, dom.y_min + v * dom.height)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rim_hits_equal_oracle(data):
    dom = data.draw(domains())
    center = data.draw(centres(dom))
    # from 1e-4 of the diagonal to beyond it
    r = dom.diagonal * 10.0 ** data.draw(st.floats(-4.0, 0.5))
    assert perimeter_circle_intersection(
        dom, center, r
    ) == oracle_perimeter_circle_intersection(dom, center, r)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rim_hits_equal_oracle_for_tangent_circles(data):
    dom = data.draw(domains())
    center = data.draw(centres(dom))
    # the radius equals the centre's offset from one side's line, so the
    # circle touches that line exactly, or misses or cuts it by a hair
    axis, level = data.draw(
        st.sampled_from(
            [(1, dom.y_min), (0, dom.x_max), (1, dom.y_max), (0, dom.x_min)]
        )
    )
    nudge = data.draw(st.sampled_from([0.0, -1e-16, 1e-16, -1e-13, 1e-13, -1e-10]))
    r = abs(center[axis] - level) * (1.0 + nudge)
    assume(r > 0.0)
    hits = perimeter_circle_intersection(dom, center, r)
    assert hits == oracle_perimeter_circle_intersection(dom, center, r)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rim_hits_equal_oracle_at_walk_scale(data):
    # the perimeter walk's case: a centre on the rim, a radius near epsilon
    dom = data.draw(domains())
    s = data.draw(st.floats(0.0, dom.perimeter, exclude_max=True))
    center = point_at(dom, s)
    r = min(dom.width, dom.height) * 10.0 ** data.draw(st.floats(-3.0, -0.01))
    assert perimeter_circle_intersection(
        dom, center, r
    ) == oracle_perimeter_circle_intersection(dom, center, r)


def test_two_rim_hits_wrap_around_and_merge_at_tol():
    # the circle cuts the bottom side tol right of the lower-left corner
    # and, by rounding, touches the left side at its end t = 1, whose
    # arclength wraps to 0: the two hits arrive out of order, exactly tol
    # apart, and merge into the earlier one
    dom = Domain(0.0, 0.5, 0.0, 0.5)
    center = Point2(float.fromhex("0x1.9c511dc3a41ccp-30"), 0.0)
    r = float.fromhex("0x1.12e0be826d66dp-31")
    assert dom.geom_tol == 1e-9
    hits = perimeter_circle_intersection(dom, center, r)
    assert hits == [(Point2(0.0, 0.0), 0.0)]
    assert hits == oracle_perimeter_circle_intersection(dom, center, r)
    # a hair wider, the bottom hit moves out of reach of the merge
    wider = math.nextafter(r, math.inf)
    for _ in range(40):
        wider = math.nextafter(wider, math.inf)
    hits = perimeter_circle_intersection(dom, center, wider)
    assert len(hits) == 2 and hits[0] == (Point2(0.0, 0.0), 0.0)
    assert hits == oracle_perimeter_circle_intersection(dom, center, wider)
    # two hits of the left side, both clamped to its ends: the second one
    # wraps to arclength 0 and comes first
    tall = Domain(0.0, 1.0, 0.0, 4.0)
    center = Point2(0.6, 2.0)
    r = math.hypot(0.6, 2.0 + 0.5 * tall.geom_tol)
    hits = perimeter_circle_intersection(tall, center, r)
    assert hits == [(Point2(0.0, 0.0), 0.0), (Point2(0.0, 4.0), 6.0)]
    assert hits == oracle_perimeter_circle_intersection(tall, center, r)


def _circle_outcome(fn, c1, c2, r, tol):
    try:
        return fn(c1, c2, r, tol)
    except CoincidentCentersError:
        return "coincident"


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(-4.0, 2.0),
    st.floats(0.0, 2.5),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
)
def test_circle_pair_equals_oracle(x, y, log_r, ratio, angle, tol):
    r = 10.0 ** log_r
    c1 = Point2(x, y)
    d = ratio * r
    c2 = Point2(x + d * math.cos(angle), y + d * math.sin(angle))
    assert _circle_outcome(
        circle_circle_intersection, c1, c2, r, tol
    ) == _circle_outcome(oracle_circle_circle_intersection, c1, c2, r, tol)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_circle_pair_tangent_and_coincident_equal_oracle(tol):
    c1 = Point2(0.25, -3.0)
    for c2 in (Point2(2.25, -3.0), Point2(0.25, -1.0), c1):
        assert _circle_outcome(
            circle_circle_intersection, c1, c2, 1.0, tol
        ) == _circle_outcome(oracle_circle_circle_intersection, c1, c2, 1.0, tol)


def _step(intersect, select, c1, c2, r, tol):
    """The walk's forward step: the crossings, then the forward one."""
    try:
        cands = intersect(c1, c2, r, tol)
    except CoincidentCentersError as exc:
        return "intersect", type(exc), str(exc)
    try:
        return cands, select(c1, c2, cands, tol)
    except (CoincidentCentersError, NoForwardCandidateError) as exc:
        return cands, type(exc), str(exc)


def _assert_step_equals_oracle(c1, c2, r, tol):
    fast = _step(circle_circle_intersection, select_forward, c1, c2, r, tol)
    oracle = _step(
        oracle_circle_circle_intersection, oracle_select_forward, c1, c2, r, tol
    )
    assert fast == oracle
    if fast[0] != "intersect":
        assert all(type(p) is tuple for p in fast[0])


def _nudge(v, ulps):
    direction = math.copysign(math.inf, ulps)
    for _ in range(abs(ulps)):
        v = math.nextafter(v, direction)
    return v


@st.composite
def circle_pairs(draw):
    """Centre pairs at d = tol, 2r - tol, 2r, 2r + tol, r or anywhere, +- a few ulps."""
    r = 10.0 ** draw(st.floats(-12.0, 6.0))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, r * 1e-9, r * 0.3]))
    x = draw(st.floats(-1e3, 1e3))
    y = draw(st.floats(-1e3, 1e3))
    target = draw(
        st.sampled_from([tol, 2.0 * r - tol, 2.0 * r, 2.0 * r + tol, r])
        | st.floats(0.0, 2.5).map(lambda k: k * r)
    )
    ulps = draw(st.integers(-4, 4))
    if draw(st.booleans()):
        # along an axis the distance is the coordinate difference exactly
        # when it is representable, so the ulp nudges land on the thresholds
        sign = draw(st.sampled_from([1.0, -1.0]))
        if draw(st.booleans()):
            return Point2(x, y), Point2(_nudge(x + sign * target, ulps), y), r, tol
        return Point2(x, y), Point2(x, _nudge(y + sign * target, ulps)), r, tol
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    c2 = Point2(
        _nudge(x + target * math.cos(angle), ulps), y + target * math.sin(angle)
    )
    return Point2(x, y), c2, r, tol


@settings(max_examples=1000, deadline=None)
@given(circle_pairs())
def test_forward_step_equals_oracle_at_thresholds(pair):
    _assert_step_equals_oracle(*pair)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-6.0, 3.0),
    st.floats(0.01, 1.0),
)
def test_forward_step_equals_oracle_at_walk_scale(x, y, angle, log_r, ratio):
    # the walk's pairs: a bisection gap below epsilon, or one step of epsilon
    r = 10.0 ** log_r
    tol = 1e-9 * max(1.0, 2e3)
    for d in (ratio * r, r):
        c2 = Point2(x + d * math.cos(angle), y + d * math.sin(angle))
        _assert_step_equals_oracle(Point2(x, y), c2, r, tol)


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
def test_forward_step_equals_oracle_at_exact_thresholds(tol):
    c1 = Point2(0.25, -3.0)
    for c2 in (
        c1,
        Point2(0.25 + tol, -3.0),
        Point2(2.25, -3.0),
        Point2(2.25 - tol, -3.0),
        Point2(0.25, -1.0),
        Point2(1.25, -3.0),
        Point2(-0.75, -3.0),
    ):
        for a, b in ((c1, c2), (c2, c1)):
            _assert_step_equals_oracle(a, b, 1.0, tol)
    cands = circle_circle_intersection(c1, Point2(1.25, -3.0), 1.0, tol)
    assert select_forward(c1, Point2(1.25, -3.0), cands, tol) == Point2(
        0.75, -3.0 + math.sqrt(0.75)
    )


@st.composite
def decision_step_pairs(draw):
    """(c1, c2, r, tol, walk) of a decision step, with r above 2 tol.

    `EdgeConfig.validate_for` keeps epsilon above twice the geometric
    tolerance.  With walk set the centres lie up to r apart, as the
    walk's pair does, at coordinates up to 1e3; otherwise they lie
    anywhere from tol to 2r - tol apart, a few ulps either side of those
    ends included, at coordinates up to 10.
    """
    r = 10.0 ** draw(st.floats(-6.0, 3.0))
    tol = draw(st.sampled_from([1e-12, 1e-9, 2e-6, 0.49 * r]))
    assume(r > 2.0 * tol)
    walk = draw(st.booleans())
    if walk:
        span, d = 1e3, r * draw(st.floats(0.0, 1.0))
    else:
        span = 10.0
        d = draw(
            st.sampled_from([tol, 2.0 * r - tol])
            | st.floats(0.0, 2.0).map(lambda k: k * r)
        )
    x = draw(st.floats(-span, span))
    y = draw(st.floats(-span, span))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    c2 = (_nudge(x + d * math.cos(angle), draw(st.integers(-4, 4))), y + d * math.sin(angle))
    return (x, y), c2, r, tol, walk


@settings(max_examples=1000, deadline=None)
@given(decision_step_pairs())
def test_forward_point_is_the_first_of_two(pair):
    # the walk takes cands[0] without select_forward when two come back
    c1, c2, r, tol, walk = pair
    try:
        cands = circle_circle_intersection(c1, c2, r, tol)
    except CoincidentCentersError:
        reject()
    if walk:
        assert len(cands) == 2
    if len(cands) == 2:
        assert select_forward(c1, c2, cands, tol) is cands[0]


def nearest_ahead(dom, center, s_cur, r):
    """The perimeter walk's step by the full search: (point, s, step) or None.

    Every hit of the circle on the rim, and of those more than tol ahead,
    counter-clockwise, the one with the least (step, s, point), as the
    walk picked it before it stepped along one side.
    """
    best = None
    period = dom.perimeter
    for p, s in perimeter_circle_intersection(dom, center, r):
        # the step from s_cur to s, wrapped into (-P/2, P/2]
        d = (s - s_cur) % period
        if d > 0.5 * period:
            d -= period
        if d > dom.geom_tol and (best is None or (d, s, p) < best):
            best = (d, s, p)
    return None if best is None else (best[2], best[1], best[0])


def _bits(step):
    """A step's floats as hex strings, which tell -0.0 from 0.0."""
    (x, y), s, d = step
    return x.hex(), y.hex(), s.hex(), d.hex()


def _sides_in_reach(dom, center, r):
    reach = r + 2.0 * dom.geom_tol
    return sum(
        abs(center[1] - e.start[1] if e.axis else center[0] - e.start[0]) <= reach
        for e in dom.edges
    )


@st.composite
def rim_walk_steps(draw):
    """(domain, centre, s, epsilon) of one perimeter walk step.

    The centre lies on a side, as every rim point the walk queries does:
    anywhere on it, at a corner, or a few ulps either side of where the
    adjacent side's line comes within reach.  epsilon runs from just above
    2 tol, the least `EdgeConfig` accepts, up to the shorter side.
    """
    dom = draw(
        st.sampled_from(
            [
                Domain(0.0, 10.0, 0.0, 7.0),  # the five-bus study's domain
                Domain(-1.0, 1.0, -1.0, 1.0),
                Domain(-6.0, 6.0, -2.0, 10.0),
            ]
        )
        | domains()
    )
    tol = dom.geom_tol
    short = min(dom.width, dom.height)
    lowest = math.nextafter(2.0 * tol, math.inf)
    eps = draw(
        st.sampled_from([lowest, _nudge(lowest, 3), short * (1.0 - 1e-12)])
        | st.floats(0.0, 1.0, exclude_max=True).map(
            lambda u: lowest * (short / lowest) ** u
        )
        | st.floats(-4.0, -0.5).map(lambda k: short * 10.0**k)
    )
    assume(2.0 * tol < eps < short)
    (ax, ay), length, s_edge, axis, dx, dy, _, _ = draw(st.sampled_from(dom.edges))
    along, step = (ax, dx) if axis else (ay, dy)
    reach = eps + 2.0 * tol
    kind = draw(st.sampled_from(["anywhere", "anywhere", "corner", "reach"]))
    if kind == "anywhere":
        t = draw(st.floats(0.0, 1.0))
    elif kind == "corner":
        t = draw(st.sampled_from([0.0, 1.0]))
    else:
        # where the line of the side before or after this one is reach away
        end = draw(st.sampled_from([0.0, 1.0]))
        u = along + end * step + (reach if end == 0.0 else -reach) * math.copysign(
            1.0, step
        )
        u = _nudge(u, draw(st.integers(-4, 4)))
        t = min(max((u - along) / step, 0.0), 1.0)
    center = (ax + t * dx, ay + t * dy)
    s = (s_edge + t * length) % dom.perimeter
    return dom, center, s, eps


@settings(max_examples=1000, deadline=None)
@given(rim_walk_steps())
def test_step_along_side_equals_full_search(step):
    dom, center, s, eps = step
    fast = step_along_side(dom, center, s, eps)
    if fast is None:
        # the walk falls back to the full search; a lone side in reach
        # falls back only where rounding swamps the radius
        assert _sides_in_reach(dom, center, eps) != 1 or eps < 1e-6 * dom.diagonal
        return
    oracle = nearest_ahead(dom, center, s, eps)
    assert oracle is not None
    assert _bits(fast) == _bits(oracle)
    assert type(fast[0]) is tuple
    assert _sides_in_reach(dom, center, eps) == 1


def test_step_along_side_picks_the_root_on_the_walks_side():
    dom = Domain(0.0, 10.0, 0.0, 7.0)
    # mid-side: counter-clockwise steps to larger s
    assert step_along_side(dom, (4.0, 0.0), 4.0, 0.5) == ((4.5, 0.0), 4.5, 0.5)
    # the top side runs from (10, 7), at arclength 17, to the left
    assert step_along_side(dom, (4.0, 7.0), 23.0, 0.5) == ((3.5, 7.0), 23.5, 0.5)
    # within reach of the right side's line: the corner is the full search's
    assert step_along_side(dom, (9.5, 0.0), 9.5, 0.5) is None
    assert step_along_side(dom, (0.0, 0.0), 0.0, 0.5) is None
    assert nearest_ahead(dom, (0.0, 0.0), 0.0, 0.5) == ((0.5, 0.0), 0.5, 0.5)
    # a centre exactly reach from the right side's line has that side in
    # reach, as in the full search; one ulp less of radius leaves the
    # bottom side alone
    two_tol = 2.0 * dom.geom_tol
    eps = next(
        e for e in (_nudge(0.5 - two_tol, k) for k in range(-4, 5)) if e + two_tol == 0.5
    )
    assert step_along_side(dom, (9.5, 0.0), 9.5, eps) is None
    eps = math.nextafter(eps, 0.0)
    fast = step_along_side(dom, (9.5, 0.0), 9.5, eps)
    assert fast is not None
    assert fast == nearest_ahead(dom, (9.5, 0.0), 9.5, eps)


def test_cached_constants_match_their_formulas():
    d = Domain(-3.0, 5.0, 2.0, 4.5)
    assert d.perimeter == 2.0 * (d.width + d.height)
    assert d.geom_tol == 1e-9 * max(1.0, d.diagonal)
    cs = d.corners()
    assert cs == (
        Point2(-3.0, 2.0),
        Point2(5.0, 2.0),
        Point2(5.0, 4.5),
        Point2(-3.0, 4.5),
    )
    assert [e.start for e in d.edges] == list(cs)
    assert [(e.dx, e.dy) for e in d.edges] == [(8.0, 0.0), (0.0, 2.5), (-8.0, 0.0), (0.0, -2.5)]
    assert [e.length for e in d.edges] == [8.0, 2.5, 8.0, 2.5]
    assert [e.s_start for e in d.edges] == [0.0, 8.0, 10.5, 18.5]
    assert [e.axis for e in d.edges] == [1, 0, 1, 0]


def test_cached_domain_stays_frozen_with_field_equality():
    d = Domain(-1.0, 2.0, 0.5, 4.0)
    h = hash(d)
    d.perimeter, d.geom_tol, d.corners(), d.edges  # fill the cache
    with pytest.raises(FrozenInstanceError):
        d.x_min = 0.0
    with pytest.raises(FrozenInstanceError):
        d.perimeter = 1.0
    fresh = Domain(-1.0, 2.0, 0.5, 4.0)
    assert d == fresh
    assert hash(d) == hash(fresh) == h
    assert d != Domain(-1.0, 2.0, 0.5, 4.5)
    assert {d: 1}[fresh] == 1
    assert repr(d) == repr(fresh)
    # a copy with other bounds computes its own constants
    wider = replace(d, x_max=3.0)
    assert wider.perimeter == 2.0 * (4.0 + 3.5)
    assert wider.corners()[1] == Point2(3.0, 0.5)
