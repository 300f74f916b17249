"""Reference boundaries and estimate quality metrics.

A reference boundary is a dense cloud of points on (or near) the true
decision boundary, carrying its own localization slack.  References come
from two places: contouring a scalar field on a fine grid, or the bracket
midpoints of a much finer estimation run when only the black box exists.

The headline metric is the average symmetric distance between an estimate
side and the reference: the mean of all nearest-neighbor distances taken
in both directions.  An estimate is scored as the sum over its inner and
outer sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from .errors import EmptyContourError, InputError, ReferenceResolutionError
from .geometry import Domain
from .marching import marching_squares, polyline_length
from .walk import BoundaryEstimate

_MIN_COMPONENT_FRACTION = 0.05


def _as_array(points) -> np.ndarray:
    a = np.asarray(points, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] == 0:
        raise InputError(f"expected a non-empty (n, 2) point set, got shape {a.shape}")
    return a


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
    _tree: cKDTree | None = field(default=None, repr=False)

    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def nn_distances(self, points) -> np.ndarray:
        return self.tree().query(_as_array(points))[0]


def _edge_interior_runs(fn, threshold: float, domain: Domain, cell: float) -> np.ndarray:
    """Points at spacing <= cell on perimeter stretches inside the level set.

    Where the level set crosses an edge, the crossing parameter is refined
    by root finding so run endpoints sit on the true boundary.
    """
    out: list[tuple[float, float]] = []
    corners = domain.corners()
    for (ax, ay), (bx, by) in zip(corners, (*corners[1:], corners[0])):
        length = math.hypot(bx - ax, by - ay)
        n = max(2, math.ceil(length / cell) + 1)
        ts = np.linspace(0.0, 1.0, n)
        vals = np.asarray(
            fn(ax + ts * (bx - ax), ay + ts * (by - ay)), dtype=float
        )
        inside = vals < threshold

        def height(t):
            return float(fn(ax + t * (bx - ax), ay + t * (by - ay))) - threshold

        cuts = [0.0]
        for k in np.nonzero(inside[:-1] != inside[1:])[0].tolist():
            lo, hi = float(ts[k]), float(ts[k + 1])
            if height(hi) == 0.0:
                cuts.append(hi)
            elif height(lo) == 0.0:
                cuts.append(lo)
            else:
                cuts.append(float(brentq(height, lo, hi, xtol=1e-13)))
        cuts.append(1.0)
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo <= 0.0:
                continue
            if float(fn(
                ax + 0.5 * (lo + hi) * (bx - ax),
                ay + 0.5 * (lo + hi) * (by - ay),
            )) < threshold:
                m = max(2, math.ceil((hi - lo) * length / cell) + 1)
                for t in np.linspace(lo, hi, m):
                    out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    if not out:
        return np.empty((0, 2), dtype=float)
    return np.array(out, dtype=float)


def reference_from_scalar(
    fn,
    threshold: float,
    domain: Domain,
    cell: float,
    include_domain_edges: bool = False,
) -> ReferenceBoundary:
    """Contour the scalar field and collect its vertices as a reference.

    Contour pieces shorter than 5% of the longest piece are dropped; they
    are below the resolution an epsilon-stepping estimate can see and
    would skew the symmetric distance.  With include_domain_edges the
    perimeter stretches running through the interior are appended, giving
    the full boundary of the clipped region.
    """
    polylines = marching_squares(fn, threshold, domain, cell)
    lengths = [polyline_length(p) for p in polylines]
    kept = []
    if polylines:
        longest = max(lengths)
        kept = [
            p
            for p, ln in zip(polylines, lengths)
            if ln >= _MIN_COMPONENT_FRACTION * longest
        ]
    chunks = []
    for p in kept:
        if len(p) > 1 and (p[0] == p[-1]).all():
            chunks.append(p[:-1])
        else:
            chunks.append(p)
    if include_domain_edges:
        runs = _edge_interior_runs(fn, threshold, domain, cell)
        if len(runs):
            chunks.append(runs)
    if not chunks:
        raise EmptyContourError(
            f"level set {threshold} does not intersect the domain at cell {cell}"
        )
    return ReferenceBoundary(
        points=np.vstack(chunks),
        slack=cell,
        polylines=kept,
        source="scalar",
    )


def reference_from_estimate(estimate: BoundaryEstimate) -> ReferenceBoundary:
    """Bracket midpoints of a fine run, for scoring when no field exists.

    Every appended point sits within epsilon of the latest opposite-label
    point, so each such pair straddles the boundary and its midpoint is
    within epsilon / 2 of it.
    """
    pts = estimate.points_in_order()
    if len(pts) < 2:
        raise InputError("estimate holds no bracket pair")
    latest = {pts[0][1]: pts[0][0]}
    mids = []
    for p, lab in pts[1:]:
        partner = latest.get(1 - lab)
        if partner is not None:
            mids.append(((p[0] + partner[0]) / 2.0, (p[1] + partner[1]) / 2.0))
        latest[lab] = p
    return ReferenceBoundary(
        points=np.array(mids, dtype=float),
        slack=estimate.epsilon / 2.0,
        source="blackbox",
    )


def average_symmetric_distance(a, b) -> float:
    """Mean nearest-neighbor distance over both directions between sets."""
    aa = _as_array(a)
    bb = _as_array(b)
    d_ab = cKDTree(bb).query(aa)[0]
    d_ba = cKDTree(aa).query(bb)[0]
    return float((d_ab.sum() + d_ba.sum()) / (len(aa) + len(bb)))


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
    return AsdBreakdown(
        inner=average_symmetric_distance(inner, reference.points),
        outer=average_symmetric_distance(outer, reference.points),
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
