"""Narrow-band marching squares against a dense oracle.

dense_marching_squares samples the field on every grid node and chains
crossings through a dictionary keyed by grid edge.  It is the reference:
the narrow-band version must return the same polylines, in the same
order, vertex for vertex, for every contour piece the band reaches.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk import metrics
from edgewalk.classifier import CANONICAL_SPECS
from edgewalk.errors import InputError
from edgewalk.geometry import Domain, Point2
from edgewalk.marching import _BLOCK, marching_squares, node_axes
from edgewalk.metrics import reference_from_scalar

_CASE_SEGMENTS: dict[int, list[tuple[str, str]]] = {
    1: [("left", "bottom")],
    2: [("bottom", "right")],
    3: [("left", "right")],
    4: [("right", "top")],
    6: [("bottom", "top")],
    7: [("left", "top")],
    8: [("top", "left")],
    9: [("bottom", "top")],
    11: [("right", "top")],
    12: [("left", "right")],
    13: [("bottom", "right")],
    14: [("left", "bottom")],
}


def _edge_key(side: str, i: int, j: int) -> tuple[str, int, int]:
    if side == "bottom":
        return ("H", i, j)
    if side == "top":
        return ("H", i, j + 1)
    if side == "left":
        return ("V", i, j)
    return ("V", i + 1, j)


def dense_marching_squares(fn, threshold, domain, cell):
    """Marching squares over the whole grid, chained by a dictionary walk."""
    xs, ys = node_axes(domain, cell)
    values = np.asarray(fn(xs[None, :], ys[:, None]), dtype=float)
    if values.shape != (ys.size, xs.size):
        raise InputError("field function did not broadcast to the grid shape")
    inside = values < threshold

    crossings: dict[tuple[str, int, int], Point2] = {}
    hj, hi = np.nonzero(inside[:, :-1] != inside[:, 1:])
    for j, i in zip(hj.tolist(), hi.tolist()):
        v0 = values[j, i]
        v1 = values[j, i + 1]
        t = (threshold - v0) / (v1 - v0)
        crossings[("H", i, j)] = Point2(xs[i] + t * (xs[i + 1] - xs[i]), ys[j])
    vj, vi = np.nonzero(inside[:-1, :] != inside[1:, :])
    for j, i in zip(vj.tolist(), vi.tolist()):
        v0 = values[j, i]
        v1 = values[j + 1, i]
        t = (threshold - v0) / (v1 - v0)
        crossings[("V", i, j)] = Point2(xs[i], ys[j] + t * (ys[j + 1] - ys[j]))

    b = inside.astype(np.int8)
    case = (
        b[:-1, :-1]
        | (b[:-1, 1:] << 1)
        | (b[1:, 1:] << 2)
        | (b[1:, :-1] << 3)
    )
    adjacency: dict[tuple[str, int, int], list[tuple[str, int, int]]] = {}
    cj, ci = np.nonzero((case != 0) & (case != 15))
    for j, i in zip(cj.tolist(), ci.tolist()):
        k = int(case[j, i])
        if k == 5 or k == 10:
            center_inside = (
                values[j, i]
                + values[j, i + 1]
                + values[j + 1, i]
                + values[j + 1, i + 1]
            ) / 4.0 < threshold
            # connect so the two corners matching the center stay joined
            if (k == 5) == center_inside:
                segs = [("bottom", "right"), ("top", "left")]
            else:
                segs = [("left", "bottom"), ("right", "top")]
        else:
            segs = _CASE_SEGMENTS[k]
        for a, bside in segs:
            ka = _edge_key(a, i, j)
            kb = _edge_key(bside, i, j)
            adjacency.setdefault(ka, []).append(kb)
            adjacency.setdefault(kb, []).append(ka)

    polylines: list[np.ndarray] = []
    consumed: set[frozenset] = set()

    def walk_chain(start):
        chain = [start]
        cur = start
        while True:
            nxt = None
            for nb in adjacency[cur]:
                link = frozenset((cur, nb))
                if link not in consumed:
                    nxt = nb
                    consumed.add(link)
                    break
            if nxt is None:
                return chain
            chain.append(nxt)
            cur = nxt

    ordered_keys = sorted(adjacency)
    # open chains first, from their degree-one ends
    for key in ordered_keys:
        if len(adjacency[key]) == 1:
            link = frozenset((key, adjacency[key][0]))
            if link not in consumed:
                chain = walk_chain(key)
                polylines.append(
                    np.array([crossings[e] for e in chain], dtype=float)
                )
    # remaining segments belong to closed loops; the walk returns to its
    # start, repeating it as the final vertex
    for key in ordered_keys:
        for nb in adjacency[key]:
            if frozenset((key, nb)) not in consumed:
                chain = walk_chain(key)
                polylines.append(
                    np.array([crossings[e] for e in chain], dtype=float)
                )
                break
    return polylines


def assert_same_polylines(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def assert_matches_dense(fn, threshold, domain, cell):
    """Polylines and the reference equal the dense oracle's.

    Returns the dense polylines, so a caller can check the case is not empty.
    """
    want = dense_marching_squares(fn, threshold, domain, cell)
    assert_same_polylines(marching_squares(fn, threshold, domain, cell), want)
    ref = reference_from_scalar(fn, threshold, domain, cell)
    with mock.patch.object(metrics, "marching_squares", dense_marching_squares):
        dense_ref = reference_from_scalar(fn, threshold, domain, cell)
    assert np.array_equal(ref.points, dense_ref.points)
    assert_same_polylines(ref.polylines, dense_ref.polylines)
    return want


@pytest.mark.parametrize("cell", [0.05, 0.01, 0.005])
@pytest.mark.parametrize("name", sorted(CANONICAL_SPECS))
def test_canonical_specs_match_dense(name, cell):
    spec = CANONICAL_SPECS[name]
    assert assert_matches_dense(spec.fn, spec.threshold, spec.domain, cell)


# an odd-sized domain, so the last block along each axis is narrower
DOMAIN = Domain(-1.0, 1.3, -0.9, 1.0)
cells = st.floats(0.01, 0.05)


def _inside_point(margin):
    return st.tuples(
        st.floats(DOMAIN.x_min + margin, DOMAIN.x_max - margin),
        st.floats(DOMAIN.y_min + margin, DOMAIN.y_max - margin),
    )


@settings(max_examples=40, deadline=None)
@given(
    cell=cells,
    center=_inside_point(0.0),
    minor=st.floats(0.0, 1.0),
    ratio=st.floats(1.0, 4.0),
    angle=st.floats(0.0, math.pi),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_ellipses_match_dense(cell, center, minor, ratio, angle, sign):
    # a minor semi-axis of 7 cells leaves at least a quarter disc of
    # radius 7 cells in the domain, which holds a block corner
    b = 7.0 * cell + minor * (0.8 - 7.0 * cell)
    a = ratio * b
    c, s = math.cos(angle), math.sin(angle)

    def ellipse(x, y):
        u = (x - center[0]) * c + (y - center[1]) * s
        v = (y - center[1]) * c - (x - center[0]) * s
        return sign * ((u / a) ** 2 + (v / b) ** 2)

    assert assert_matches_dense(ellipse, sign, DOMAIN, cell)


@settings(max_examples=40, deadline=None)
@given(
    cell=cells,
    first=_inside_point(0.4),
    second=_inside_point(0.4),
    radii=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_two_disc_unions_match_dense(cell, first, second, radii):
    # discs inside the domain, each at least large enough to hold a block
    # corner wherever it falls
    r_min = _BLOCK * cell / math.sqrt(2.0)
    r1, r2 = (r_min + f * (0.4 - r_min) for f in radii)

    def two_discs(x, y):
        return np.minimum(
            np.hypot(x - first[0], y - first[1]) - r1,
            np.hypot(x - second[0], y - second[1]) - r2,
        )

    assert assert_matches_dense(two_discs, 0.0, DOMAIN, cell)


@settings(max_examples=40, deadline=None)
@given(
    cell=cells,
    center=_inside_point(0.3),
    width=st.floats(2.0, 6.0),
    length=st.floats(0.0, 2.0),
    angle=st.floats(0.0, 2.0 * math.pi),
)
def test_thin_rotated_bands_match_dense(cell, center, width, length, angle):
    # a band at least 2 cells wide crosses every grid line it meets over
    # at least one node, so the band of blocks follows it from the disc
    # it grows out of, to its far end or the domain border
    half = 0.5 * width * cell
    c, s = math.cos(angle), math.sin(angle)

    def finger(x, y):
        u = (x - center[0]) * c + (y - center[1]) * s
        v = (y - center[1]) * c - (x - center[0]) * s
        band = np.maximum(np.abs(v) - half, np.abs(u - 0.5 * length) - 0.5 * length)
        return np.minimum(np.hypot(x - center[0], y - center[1]) - 0.2, band)

    assert assert_matches_dense(finger, 0.0, DOMAIN, cell)


def test_component_between_block_corners_is_missed():
    # the one behaviour change from dense sampling: a disc of 1.5 cells
    # radius at the middle of a block holds no block corner, so no block
    # seeds the band around it, while a large disc beside it is traced
    d = Domain(0.0, 1.0, 0.0, 1.0)
    cell = 0.01
    block = _BLOCK * cell
    small = (10.5 * block, 10.5 * block)

    def blob(x, y):
        return np.hypot(x - small[0], y - small[1]) - 1.5 * cell

    assert len(dense_marching_squares(blob, 0.0, d, cell)) == 1
    assert marching_squares(blob, 0.0, d, cell) == []

    def blob_and_disc(x, y):
        return np.minimum(blob(x, y), np.hypot(x - 0.8, y - 0.8) - 0.1)

    dense = dense_marching_squares(blob_and_disc, 0.0, d, cell)
    band = marching_squares(blob_and_disc, 0.0, d, cell)
    assert len(dense) == 2
    assert len(band) == 1
    assert any(np.array_equal(band[0], p) for p in dense)


def test_fine_reference_stays_small():
    # a dense grid at cell 1e-3 holds 144 M nodes, about 2.3 GB of field
    # values and masks; the band keeps the build far below that
    spec = CANONICAL_SPECS["rosenbrock"]
    cell = 1e-3
    tracemalloc.start()
    try:
        ref = reference_from_scalar(spec.fn, spec.threshold, spec.domain, cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    assert ref.polylines
    for p in ref.polylines:
        steps = np.sqrt(((p[1:] - p[:-1]) ** 2).sum(axis=1))
        assert steps.max() <= cell * math.sqrt(2.0) + 1e-12
