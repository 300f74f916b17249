"""Reference boundaries and estimate quality metrics.

A reference boundary is a dense cloud of points on (or near) the true
decision boundary, carrying its own localization slack.  There is one
definition of that boundary: the points inside the domain where the label
changes.  The rim of the domain is not part of it, even where the region
runs into the rim.  References come from two places: contouring a scalar
field on a fine grid (slack: the cell), or the bracket midpoints of a much
finer estimation run when only the black box exists (slack: epsilon / 2).

The headline metric is the average symmetric distance between an estimate
side and the reference: the mean of all nearest-neighbor distances taken
in both directions.  An estimate is scored as the sum over its inner and
outer sides.

Every score rests on one nearest-neighbour search, `_nearest`, which
takes two (n, 2) arrays and returns the exact Euclidean distance from each
point of either to the nearest point of the other, on numpy alone.  It
buckets both sets on a uniform grid of square cells of side h, four times
the joint bounding box's longer side over the smaller set's count: about
the spacing of the sparser set when both trace one curve, as an estimate
side and its reference do.  Each point of one set is paired with the
points of the other in its 3 x 3 block of cells, and the least
dx*dx + dy*dy over those pairs is kept in both directions, the pairs
streamed in chunks of 2^15 so that the temporaries stay at a few MB.

Why it is exact: two points less than h apart lie in neighbouring cells
or the same one, so the block around a point holds every point within h
of it.  A point whose best squared distance is at most h^2 (less a
2^-20 margin for the rounding of the cell indices) is therefore final.
The points that are not get searched again with the side doubled, until
h covers the bounding box and the block holds the whole other set.  The
distance is then np.sqrt of that least sum, the same float expression a
KD-tree query evaluates, so the result equals scipy's
`cKDTree.query` bit for bit; the tests check it against that oracle.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import EmptyContourError, InputError, ReferenceResolutionError
from .geometry import Domain
from .marching import marching_squares, polyline_length
from .walk import BoundaryEstimate

_MIN_COMPONENT_FRACTION = 0.05
# pairs measured per chunk of the nearest-neighbour search
_CHUNK = 1 << 15
# a best distance at most this fraction of the cell side is final
_REACH = 1.0 - 2.0**-20


def _as_array(points) -> np.ndarray:
    a = np.asarray(points, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] == 0:
        raise InputError(f"expected a non-empty (n, 2) point set, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError("point coordinates must be finite")
    return a


def _block_min(
    q: np.ndarray, p: np.ndarray, lo: np.ndarray, side: float, both: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Least squared distances between q and p within 3 x 3 cell blocks.

    Returns, for each point of q, the least dx*dx + dy*dy to the points of
    p in its block of cells of the given side, cells counted from lo, and,
    when both is set, the same for each point of p (None otherwise); inf
    where the block is empty.
    """
    # a ring of empty cells round the occupied ones, so a key's neighbours
    # never wrap onto the next column
    cq = np.floor((q - lo) / side).astype(np.int64) + 1
    cp = np.floor((p - lo) / side).astype(np.int64) + 1
    stride = int(max(cq[:, 1].max(), cp[:, 1].max())) + 2
    kq = cq[:, 0] * stride + cq[:, 1]
    kp = cp[:, 0] * stride + cp[:, 1]
    oq = np.argsort(kq)
    op = np.argsort(kp)
    kq = kq[oq]
    cells, first, count = np.unique(kp[op], return_index=True, return_counts=True)
    # one row per point of q and occupied cell of its block: the run of
    # sorted p in that cell
    row_q, row_p, row_n = [], [], []
    for shift in (-stride, 0, stride):
        for d in (-1, 0, 1):
            target = kq + (shift + d)
            at = np.searchsorted(cells, target)
            at[at == len(cells)] = 0
            hit = np.flatnonzero(cells[at] == target)
            row_q.append(hit)
            row_p.append(first[at[hit]])
            row_n.append(count[at[hit]])
    rows = np.concatenate(row_q)
    starts = np.concatenate(row_p)
    sizes = np.concatenate(row_n)
    ends = np.cumsum(sizes)
    qx, qy = q[oq, 0], q[oq, 1]
    px, py = p[op, 0], p[op, 1]
    best_q = np.full(len(q), np.inf)
    best_p = np.full(len(p), np.inf)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_CHUNK, total, _CHUNK), side="right")
    bounds = [0, *cuts.tolist(), len(rows)]
    for r0, r1 in zip(bounds, bounds[1:]):
        if r0 == r1:
            continue
        n = sizes[r0:r1]
        offset = ends[r0:r1] - n
        offset -= offset[0]
        i = np.repeat(rows[r0:r1], n)
        j = np.arange(int(offset[-1] + n[-1])) + np.repeat(starts[r0:r1] - offset, n)
        dx = qx[i] - px[j]
        dy = qy[i] - py[j]
        d2 = dx * dx + dy * dy
        np.minimum.at(best_q, rows[r0:r1], np.minimum.reduceat(d2, offset))
        if both:
            np.minimum.at(best_p, j, d2)
    out_q = np.empty_like(best_q)
    out_q[oq] = best_q
    if not both:
        return out_q, None
    out_p = np.empty_like(best_p)
    out_p[op] = best_p
    return out_q, out_p


def _nearest(
    a: np.ndarray, b: np.ndarray, both: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact nearest-neighbour distances from a to b and from b to a.

    With both unset, only those from a to b are searched, and the second
    value is None.
    """
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    extent = float((np.maximum(a.max(axis=0), b.max(axis=0)) - lo).max())
    side = 4.0 * extent / min(len(a), len(b))
    if not side > 0.0:
        # every point coincides, or the side underflowed
        side = extent or 1.0
    best_a, best_b = _block_min(a, b, lo, side, both)
    open_a = np.arange(len(a))
    open_b = np.arange(len(b) if both else 0)
    while True:
        reach = (side * _REACH) ** 2
        open_a = open_a[best_a[open_a] > reach]
        if both:
            open_b = open_b[best_b[open_b] > reach]
        if side >= extent or not (open_a.size or open_b.size):
            break
        side *= 2.0
        if open_a.size:
            best_a[open_a] = _block_min(a[open_a], b, lo, side, False)[0]
        if open_b.size:
            best_b[open_b] = _block_min(b[open_b], a, lo, side, False)[0]
    return np.sqrt(best_a), (np.sqrt(best_b) if both else None)


@dataclass
class ReferenceBoundary:
    """Dense point cloud standing in for the true boundary.

    slack bounds how far reference points themselves may sit from the
    true boundary; scoring tolerances should add it.
    """

    points: np.ndarray
    slack: float
    polylines: list[np.ndarray] = field(default_factory=list)
    source: str = "scalar"

    def nn_distances(self, points) -> np.ndarray:
        return _nearest(_as_array(points), _as_array(self.points), both=False)[0]


def reference_from_scalar(
    fn, threshold: float, domain: Domain, cell: float
) -> ReferenceBoundary:
    """Contour the scalar field and collect its vertices as a reference.

    Contour pieces shorter than 5% of the longest piece are dropped; they
    are below the resolution an epsilon-stepping estimate can see and
    would skew the symmetric distance.
    """
    polylines = marching_squares(fn, threshold, domain, cell)
    if not polylines:
        raise EmptyContourError(
            f"level set {threshold} does not intersect the domain at cell {cell}"
        )
    lengths = [polyline_length(p) for p in polylines]
    longest = max(lengths)
    kept = [
        p
        for p, ln in zip(polylines, lengths)
        if ln >= _MIN_COMPONENT_FRACTION * longest
    ]
    # a closed piece repeats its first vertex last
    chunks = [p[:-1] if len(p) > 1 and (p[0] == p[-1]).all() else p for p in kept]
    return ReferenceBoundary(
        points=np.vstack(chunks),
        slack=cell,
        polylines=kept,
        source="scalar",
    )


def reference_from_estimate(estimate: BoundaryEstimate) -> ReferenceBoundary:
    """Bracket midpoints of a fine run, for scoring when no field exists.

    Each point is paired with the latest point of the other label before
    it, and the pair's midpoint is kept when the two lie within epsilon of
    each other, as the bracket pair always does.  The domain is convex, so
    the segment between them lies in it, and the label changes along it:
    the decision boundary crosses the segment, within epsilon / 2 of the
    midpoint.  A rim episode carries its interior points away from the
    latest exterior one; those pairs lie farther apart and are skipped.

    The pairing streams the bracket pair and `walk_log()` and packs the
    midpoints into one float array, which the returned (n, 2) points
    share, so the reference holds no object per point: about 17 bytes a
    query at its peak.
    """
    inner, outer = estimate.pair
    reach = estimate.epsilon * (1.0 + 1e-9)
    # the latest point of each label, indexed by label
    latest = [outer, inner]
    mids = array("d")
    add = mids.append
    for p, lab in chain(((outer, 0),), estimate.walk_log()):
        partner = latest[1 - lab]
        if math.dist(p, partner) <= reach:
            add((p[0] + partner[0]) / 2.0)
            add((p[1] + partner[1]) / 2.0)
        latest[lab] = p
    return ReferenceBoundary(
        points=np.frombuffer(mids).reshape(-1, 2),
        slack=estimate.epsilon / 2.0,
        source="blackbox",
    )


def _symmetric_distance(aa: np.ndarray, bb: np.ndarray) -> float:
    """Average symmetric distance between two point arrays."""
    d_ab, d_ba = _nearest(aa, bb)
    return float((d_ab.sum() + d_ba.sum()) / (len(aa) + len(bb)))


def average_symmetric_distance(a, b) -> float:
    """Mean nearest-neighbor distance over both directions between sets."""
    return _symmetric_distance(_as_array(a), _as_array(b))


@dataclass(frozen=True)
class AsdBreakdown:
    inner: float
    outer: float

    @property
    def total(self) -> float:
        return self.inner + self.outer


def asd_to_reference(
    inner, outer, reference: ReferenceBoundary, epsilon: float | None = None
) -> AsdBreakdown:
    """Score both estimate sides against a reference.

    For black-box references the reference run must be at least ten times
    finer than the scored estimate, otherwise its own error dominates.
    """
    if (
        epsilon is not None
        and reference.source == "blackbox"
        and reference.slack > epsilon / 20.0 * (1.0 + 1e-9)
    ):
        raise ReferenceResolutionError(
            f"reference slack {reference.slack} too coarse for scoring an "
            f"epsilon {epsilon} estimate; need a run at epsilon/10 or finer"
        )
    points = _as_array(reference.points)
    return AsdBreakdown(
        inner=_symmetric_distance(_as_array(inner), points),
        outer=_symmetric_distance(_as_array(outer), points),
    )


@dataclass(frozen=True)
class CoverageResult:
    fraction_within: float
    max_distance: float
    n_outside: int


def coverage_within(points, reference: ReferenceBoundary, tol: float) -> CoverageResult:
    """Fraction of points within tol of the reference cloud."""
    d = reference.nn_distances(points)
    return CoverageResult(
        fraction_within=float(np.mean(d <= tol)),
        max_distance=float(d.max()),
        n_outside=int((d > tol).sum()),
    )


__all__ = [
    "AsdBreakdown",
    "CoverageResult",
    "ReferenceBoundary",
    "asd_to_reference",
    "average_symmetric_distance",
    "coverage_within",
    "reference_from_estimate",
    "reference_from_scalar",
]
