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
from .geometry import Domain


@dataclass
class GridEstimate:
    """The kept transition nodes, each side an (n, 2) float array of (x, y) rows.

    Nodes come in scan order, row by row from the bottom, left to right.
    """

    inner: np.ndarray
    outer: np.ndarray
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
    """Query the full grid row by row, bottom to top, left to right.

    The grid keeps only the labels, so each node is queried as a plain
    (x, y) tuple; the kept transition nodes are rebuilt from their indices
    with the same float expressions.
    """
    domain = c.domain
    nx, ny = grid_shape(domain, epsilon)
    start = c.query_count
    xs = [domain.x_min + i * epsilon for i in range(nx)]
    query = c.query
    rows = []
    for j in range(ny):
        y = domain.y_min + j * epsilon
        rows.append([query((x, y)) for x in xs])
    labels = np.array(rows, dtype=np.int8)
    total = c.query_count - start

    interior = labels == 1
    # the nodes whose label differs from that of an on-grid 4-neighbour
    differs = np.zeros_like(interior)
    step_x = interior[:, 1:] != interior[:, :-1]
    step_y = interior[1:] != interior[:-1]
    differs[:, 1:] |= step_x
    differs[:, :-1] |= step_x
    differs[1:] |= step_y
    differs[:-1] |= step_y

    # (x, y) of the nodes a mask holds, x_min + i * epsilon as each was queried
    corner = np.array([domain.x_min, domain.y_min], dtype=float)
    return GridEstimate(
        inner=corner + np.argwhere(interior & differs)[:, ::-1] * epsilon,
        outer=corner + np.argwhere(~interior & differs)[:, ::-1] * epsilon,
        nx=nx,
        ny=ny,
        total_queries=total,
    )
