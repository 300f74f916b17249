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

Only scoring needs scipy, and it loads on first use, not with the
package: `scipy.spatial` at the first KD-tree (`asd_to_reference`,
`average_symmetric_distance`, `coverage_within`,
`ReferenceBoundary.nn_distances`).  Walks, grids, classifiers, the DC-OPF
oracle and contouring run on numpy alone.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyContourError, InputError, ReferenceResolutionError
from .geometry import Domain
from .marching import marching_squares, polyline_length
from .walk import BoundaryEstimate

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

_MIN_COMPONENT_FRACTION = 0.05


def _as_array(points) -> np.ndarray:
    a = np.asarray(points, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] == 0:
        raise InputError(f"expected a non-empty (n, 2) point set, got shape {a.shape}")
    return a


def _kd_tree(points) -> cKDTree:
    # scipy.spatial loads here, at the first score, so that importing the
    # package does not pay for it
    from scipy.spatial import cKDTree

    return cKDTree(points)


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
            self._tree = _kd_tree(self.points)
        return self._tree

    def nn_distances(self, points) -> np.ndarray:
        return self.tree().query(_as_array(points))[0]


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


def _symmetric_distance(aa: np.ndarray, bb: np.ndarray, tree_b: cKDTree) -> float:
    """Average symmetric distance between point arrays, tree_b holding bb."""
    d_ab = tree_b.query(aa)[0]
    d_ba = _kd_tree(aa).query(bb)[0]
    return float((d_ab.sum() + d_ba.sum()) / (len(aa) + len(bb)))


def average_symmetric_distance(a, b) -> float:
    """Mean nearest-neighbor distance over both directions between sets."""
    aa = _as_array(a)
    bb = _as_array(b)
    return _symmetric_distance(aa, bb, _kd_tree(bb))


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
    tree = reference.tree()
    return AsdBreakdown(
        inner=_symmetric_distance(_as_array(inner), points, tree),
        outer=_symmetric_distance(_as_array(outer), points, tree),
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
