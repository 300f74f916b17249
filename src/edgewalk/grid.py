"""Exhaustive grid baseline for boundary localization.

Queries every node of a regular grid with spacing epsilon anchored at the
lower-left corner, then keeps the label transitions: interior nodes with
an exterior 4-neighbor form the inner set, exterior nodes with an
interior 4-neighbor the outer set.  Every kept point is within epsilon of
the boundary along a grid axis, matching the walk's guarantee, at the
cost of querying the full domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import Classifier
from .errors import InputError
from .geometry import Domain, Point2, _new_point


@dataclass
class GridEstimate:
    inner: list[Point2]
    outer: list[Point2]
    nx: int
    ny: int
    total_queries: int


def grid_shape(domain: Domain, epsilon: float) -> tuple[int, int]:
    """Node counts of the epsilon grid along x and y."""
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise InputError(f"epsilon must be positive and finite, got {epsilon}")
    nx = math.floor(domain.width / epsilon + 1e-9) + 1
    ny = math.floor(domain.height / epsilon + 1e-9) + 1
    return nx, ny


def run_grid(c: Classifier, epsilon: float) -> GridEstimate:
    """Query the full grid row by row, bottom to top, left to right."""
    domain = c.domain
    nx, ny = grid_shape(domain, epsilon)
    start = c.query_count
    xs = [domain.x_min + i * epsilon for i in range(nx)]
    query = c.query
    rows = []
    for j in range(ny):
        y = domain.y_min + j * epsilon
        rows.append([query(_new_point(Point2, (x, y))) for x in xs])
    labels = np.array(rows, dtype=np.int8)
    total = c.query_count - start

    interior = labels == 1
    # off-grid neighbors must never register as transitions, so each mask
    # pads with its own value
    pad_in = np.ones((ny + 2, nx + 2), dtype=bool)
    pad_in[1:-1, 1:-1] = interior
    has_out_neighbor = (
        ~pad_in[:-2, 1:-1]
        | ~pad_in[2:, 1:-1]
        | ~pad_in[1:-1, :-2]
        | ~pad_in[1:-1, 2:]
    )
    pad_out = np.zeros((ny + 2, nx + 2), dtype=bool)
    pad_out[1:-1, 1:-1] = interior
    has_in_neighbor = (
        pad_out[:-2, 1:-1]
        | pad_out[2:, 1:-1]
        | pad_out[1:-1, :-2]
        | pad_out[1:-1, 2:]
    )
    inner_mask = interior & has_out_neighbor
    outer_mask = ~interior & has_in_neighbor

    def collect(mask: np.ndarray) -> list[Point2]:
        pts = []
        for j, i in np.argwhere(mask).tolist():
            pts.append(
                Point2(domain.x_min + i * epsilon, domain.y_min + j * epsilon)
            )
        return pts

    return GridEstimate(
        inner=collect(inner_mask),
        outer=collect(outer_mask),
        nx=nx,
        ny=ny,
        total_queries=total,
    )
