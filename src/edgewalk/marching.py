"""Level-set contour extraction on a regular grid.

Classic marching squares with linear interpolation: the scalar field is
sampled at the nodes of a grid covering the domain, each crossing grid
edge gets one interpolated crossing point, and cell-local segments are
chained into polylines through shared grid edges.  Crossings are computed
once per grid edge, so chained polylines join exactly with no duplicate
or mismatched vertices.  Saddle cells are disambiguated by the mean of
the four corner values.

The field is sampled in a narrow band, so past a first pass over one
node in _BLOCK**2 the cost follows the contour length rather than the
domain area.  The grid is cut into blocks of _BLOCK by _BLOCK cells.
The first pass evaluates the field at the block corners only; blocks
whose corners disagree seed the band.  Each band
block is then evaluated at every grid node it holds, and the band grows
into each neighbouring block whose shared side carries a sign change,
until no block is added.  Every contour piece that passes through a
seeded block is therefore traced in full, and comes out vertex for
vertex as a dense sampling of the whole grid would give it.

The one difference from dense sampling: a contour piece that passes
through no block with disagreeing corners is missed, such as a blob
smaller than a block that falls between block corners, or a ring
thinner than a block.  A lone disc of radius at least
_BLOCK * cell / sqrt(2) always holds a block corner and is found.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .geometry import Domain

# block side in grid cells; it bounds the smallest contour piece that is
# always found, and the corner pass evaluates about 1/_BLOCK**2 of the nodes
_BLOCK = 4
# grid nodes per field call in the corner pass, which bounds its memory
_CHUNK_NODES = 1 << 18

_LEFT, _BOTTOM, _RIGHT, _TOP = range(4)
# segment end sides per cell case; rows 16 and 17 are the two ways to
# join a saddle (cases 5 and 10), keeping the corners that match the
# center joined; -1 pads cases with one segment
_SEGMENTS = np.full((18, 2, 2), -1, dtype=np.int8)
for _case, _segs in {
    1: [(_LEFT, _BOTTOM)],
    2: [(_BOTTOM, _RIGHT)],
    3: [(_LEFT, _RIGHT)],
    4: [(_RIGHT, _TOP)],
    6: [(_BOTTOM, _TOP)],
    7: [(_LEFT, _TOP)],
    8: [(_TOP, _LEFT)],
    9: [(_BOTTOM, _TOP)],
    11: [(_RIGHT, _TOP)],
    12: [(_LEFT, _RIGHT)],
    13: [(_BOTTOM, _RIGHT)],
    14: [(_LEFT, _BOTTOM)],
    16: [(_BOTTOM, _RIGHT), (_TOP, _LEFT)],
    17: [(_LEFT, _BOTTOM), (_RIGHT, _TOP)],
}.items():
    _SEGMENTS[_case, : len(_segs)] = _segs


def check_cell(cell: float) -> None:
    """Refuse a grid cell size that is not positive and finite."""
    if not (cell > 0.0 and math.isfinite(cell)):
        raise InputError(f"cell must be positive and finite, got {cell}")


def node_axes(domain: Domain, cell: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid node coordinates covering the domain at spacing at most cell."""
    check_cell(cell)
    nx = max(1, math.ceil(domain.width / cell - 1e-9))
    ny = max(1, math.ceil(domain.height / cell - 1e-9))
    xs = np.linspace(domain.x_min, domain.x_max, nx + 1)
    ys = np.linspace(domain.y_min, domain.y_max, ny + 1)
    return xs, ys


def _field(fn, x: np.ndarray, y: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    values = np.asarray(fn(x, y), dtype=float)
    if values.shape != shape:
        raise InputError("field function did not broadcast to the grid shape")
    return values


def _corner_indices(n: int) -> np.ndarray:
    """Node indices of the block corners along an axis of n nodes."""
    return np.unique(np.append(np.arange(0, n, _BLOCK), n - 1))


def _band(fn, threshold: float, xs: np.ndarray, ys: np.ndarray):
    """Node indices and field values of every block the contours reach.

    Returns ix (m, _BLOCK + 1), iy (m, _BLOCK + 1) and values
    (m, _BLOCK + 1, _BLOCK + 1) with rows along y.  The last block along
    an axis may be narrower; its indices repeat the final node, which
    gives zero-width cells whose corners agree pairwise.
    """
    bx, by = _corner_indices(xs.size), _corner_indices(ys.size)
    cx, cy = xs[bx], ys[by]
    rows = max(1, _CHUNK_NODES // cx.size)
    corners = np.vstack([
        _field(fn, cx[None, :], cy[r : r + rows, None], (cy[r : r + rows].size, cx.size))
        < threshold
        for r in range(0, cy.size, rows)
    ])
    c = corners[:-1, :-1]
    reached = (
        (c != corners[:-1, 1:]) | (c != corners[1:, :-1]) | (c != corners[1:, 1:])
    ).ravel()
    nby, nbx = by.size - 1, bx.size - 1
    front = np.flatnonzero(reached)
    step = np.arange(_BLOCK + 1)
    ix_parts, iy_parts, value_parts = [], [], []
    while front.size:
        bj, bi = np.divmod(front, nbx)
        ix = np.minimum(bx[bi, None] + step, xs.size - 1)
        iy = np.minimum(by[bj, None] + step, ys.size - 1)
        values = _field(
            fn, xs[ix][:, None, :], ys[iy][:, :, None], (front.size, _BLOCK + 1, _BLOCK + 1)
        )
        ix_parts.append(ix)
        iy_parts.append(iy)
        value_parts.append(values)
        s = values < threshold
        # a sign change along a block side is a contour crossing into the
        # block beyond it: left, right, bottom, top
        grow = np.concatenate([
            front[(s[:, :-1, 0] != s[:, 1:, 0]).any(axis=1) & (bi > 0)] - 1,
            front[(s[:, :-1, -1] != s[:, 1:, -1]).any(axis=1) & (bi < nbx - 1)] + 1,
            front[(s[:, 0, :-1] != s[:, 0, 1:]).any(axis=1) & (bj > 0)] - nbx,
            front[(s[:, -1, :-1] != s[:, -1, 1:]).any(axis=1) & (bj < nby - 1)] + nbx,
        ])
        front = np.unique(grow)
        front = front[~reached[front]]
        reached[front] = True
    if not value_parts:
        empty = np.empty((0, _BLOCK + 1), dtype=np.intp)
        return empty, empty, np.empty((0, _BLOCK + 1, _BLOCK + 1))
    return np.vstack(ix_parts), np.vstack(iy_parts), np.concatenate(value_parts)


def _chains(first: list[int], second: list[int], starts: list[int]) -> list[list[int]]:
    """Walk the crossing graph, where every node has one or two neighbours.

    A chain starts at each start node not yet visited and follows the
    first neighbour; an open chain stops at its other end, a loop stops
    back at its start and repeats it.
    """
    seen = bytearray(len(first))
    chains = []
    for start in starts:
        if seen[start]:
            continue
        seen[start] = 1
        chain = [start]
        prev, cur = start, first[start]
        while True:
            chain.append(cur)
            if cur == start:
                break
            seen[cur] = 1
            nxt = first[cur] if first[cur] != prev else second[cur]
            if nxt < 0:
                break
            prev, cur = cur, nxt
        chains.append(chain)
    return chains


def marching_squares(fn, threshold: float, domain: Domain, cell: float) -> list[np.ndarray]:
    """Polylines of the level set fn == threshold inside the domain.

    fn must broadcast over numpy arrays of any shape.  Returns each
    connected contour piece as an (n, 2) float array; closed loops repeat
    their first vertex at the end, open pieces start and end on the domain
    border.  Grid edges are ordered horizontal before vertical, then by
    column, then by row.  Open pieces come first, each starting at the
    lower of its two end edges and ordered by it; loops follow, each
    starting at its lowest edge and ordered by it.

    The field is sampled in a narrow band around the contours (see the
    module docstring): a contour piece that never passes through a
    block of _BLOCK by _BLOCK cells with disagreeing corners is missed,
    such as a blob smaller than a block lying between block corners.
    """
    xs, ys = node_axes(domain, cell)
    ix, iy, values = _band(fn, threshold, xs, ys)
    ncx, ncy = xs.size - 1, ys.size - 1
    n_horizontal = ncx * (ncy + 1)
    inside = values < threshold

    # one crossing per grid edge with a sign change, keyed by edge id:
    # horizontal edge (i, j) is i * (ncy + 1) + j, vertical edge (i, j)
    # follows all horizontal ones at i * ncy + j.  Neighbouring blocks
    # share their border nodes, so np.unique drops repeated edges.
    b, j, i = np.nonzero(inside[:, :, :-1] != inside[:, :, 1:])
    gi, gj = ix[b, i], iy[b, j]
    v0 = values[b, j, i]
    t = (threshold - v0) / (values[b, j, i + 1] - v0)
    h_ids = gi * (ncy + 1) + gj
    h_pts = np.column_stack([xs[gi] + t * (xs[gi + 1] - xs[gi]), ys[gj]])
    b, j, i = np.nonzero(inside[:, :-1, :] != inside[:, 1:, :])
    gi, gj = ix[b, i], iy[b, j]
    v0 = values[b, j, i]
    t = (threshold - v0) / (values[b, j + 1, i] - v0)
    v_ids = n_horizontal + gi * ncy + gj
    v_pts = np.column_stack([xs[gi], ys[gj] + t * (ys[gj + 1] - ys[gj])])
    edge_ids, keep = np.unique(np.concatenate([h_ids, v_ids]), return_index=True)
    if not edge_ids.size:
        return []
    points = np.concatenate([h_pts, v_pts])[keep]

    s = inside.astype(np.int8)
    case = s[:, :-1, :-1] | (s[:, :-1, 1:] << 1) | (s[:, 1:, 1:] << 2) | (s[:, 1:, :-1] << 3)
    real = (np.diff(iy, axis=1) > 0)[:, :, None] & (np.diff(ix, axis=1) > 0)[:, None, :]
    b, j, i = np.nonzero(real & (case != 0) & (case != 15))
    gi, gj = ix[b, i], iy[b, j]
    order = np.argsort(gj * ncx + gi)
    b, j, i, gi, gj = b[order], j[order], i[order], gi[order], gj[order]
    case = case[b, j, i]
    center_inside = (
        values[b, j, i] + values[b, j, i + 1] + values[b, j + 1, i] + values[b, j + 1, i + 1]
    ) / 4.0 < threshold
    saddle = (case == 5) | (case == 10)
    case = np.where(saddle, np.where((case == 5) == center_inside, 16, 17), case)

    sides = _SEGMENTS[case]
    gi, gj = gi[:, None, None], gj[:, None, None]
    ends = np.where(
        (sides == _BOTTOM) | (sides == _TOP),
        gi * (ncy + 1) + gj + (sides == _TOP),
        n_horizontal + (gi + (sides == _RIGHT)) * ncy + gj,
    )[sides[:, :, 0] >= 0]
    ends = np.searchsorted(edge_ids, ends)

    # neighbours of each crossing in segment order: cells row by row, then
    # the segments of a saddle in table order
    src = ends.ravel()
    dst = ends[:, ::-1].ravel()
    by_src = np.argsort(src, kind="stable")
    degree = np.bincount(src, minlength=edge_ids.size)
    head = np.cumsum(degree) - degree
    first = dst[by_src[head]]
    second = np.where(degree == 2, dst[by_src[np.minimum(head + 1, src.size - 1)]], -1)
    starts = np.concatenate([np.flatnonzero(degree == 1), np.flatnonzero(degree == 2)])
    chains = _chains(first.tolist(), second.tolist(), starts.tolist())
    return [points[chain] for chain in chains]


def polyline_length(poly: np.ndarray) -> float:
    p = np.asarray(poly, dtype=float)
    if len(p) < 2:
        return 0.0
    return float(np.sqrt(((p[1:] - p[:-1]) ** 2).sum(axis=1)).sum())
