"""Bounded-variable simplex for small dense linear programs.

Two-phase primal simplex where every variable carries explicit lower and
upper bounds.  Phase one puts an artificial variable on each equality row
and minimizes their sum; a positive optimum means the program is
infeasible.  Bland's rule keeps pivoting deterministic and cycle-free.

Sized for the network programs in this package (tens of variables): the
solver keeps the dense tableau B^-1 [A | I] of the phase-one program and
its reduced-cost row, and each pivot updates both with one rank-one step.
The basic values follow the pivots incrementally; before the phase-one
verdict and before any x is returned they are re-solved once, densely,
from the basis matrix and the nonbasic bounds, so a verdict never rests
on accumulated pivot drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError

_PIVOT_EPS = 1e-10


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray
    objective: float
    iterations: int


def _pivot(T, d, x, basis, sense, lo, hi, tol, max_iter):
    """Pivot until optimal; returns iterations used, or -1 when unbounded.

    T is the tableau B^-1 A, d the reduced costs, x the values (a list),
    basis the basic column of each row, and sense the pricing sign of each
    column: +1 at its lower bound, -1 at its upper, 0 when basic or fixed.
    All are updated in place.  A bound flip counts as an iteration.
    """
    rows = range(len(basis))
    for it in range(max_iter):
        # Bland: the lowest-index column whose reduced cost improves
        improving = d * sense < -tol
        entering = int(improving.argmax())
        if not improving[entering]:
            return it
        direction = float(sense[entering])
        w = T[:, entering].tolist()
        # basic values move by -direction * step * w; find the first bound hit
        step = math.inf
        leaving = -1
        for k in rows:
            i = basis[k]
            rate = direction * w[k]
            if rate > _PIVOT_EPS:
                limit = (x[i] - lo[i]) / rate
            elif rate < -_PIVOT_EPS:
                if not math.isfinite(hi[i]):
                    continue
                limit = (hi[i] - x[i]) / -rate
            else:
                continue
            if limit < step - _PIVOT_EPS or (
                limit < step + _PIVOT_EPS
                and (leaving < 0 or i < basis[leaving])
            ):
                step = limit
                leaving = k
        span = hi[entering] - lo[entering]
        if span < step:
            # entering variable runs to its other bound; basis unchanged
            x[entering] = hi[entering] if direction > 0 else lo[entering]
            sense[entering] = -direction
            step = span
        elif not math.isfinite(step):
            return -1
        else:
            hit = basis[leaving]
            x[entering] += direction * step
            if direction * w[leaving] > 0:
                x[hit], sense[hit] = lo[hit], 1.0
            else:
                x[hit], sense[hit] = hi[hit], -1.0
            if hi[hit] - lo[hit] <= 0.0:
                sense[hit] = 0.0
            sense[entering] = 0.0
            basis[leaving] = entering
            pivot_row = T[leaving] / w[leaving]
            T -= T[:, entering, None] * pivot_row
            T[leaving] = pivot_row
            d -= d[entering] * pivot_row
        move = direction * step
        for k in rows:
            i = basis[k]
            if i != entering:
                x[i] -= move * w[k]
    raise SolverError(f"simplex did not converge within {max_iter} pivots")


def _basic_values(A, b, x, basis):
    """Values with the basic ones solved exactly from the nonbasic bounds."""
    x = np.array(x)
    nonbasic = np.ones(len(x), dtype=bool)
    nonbasic[basis] = False
    rhs = b - A[:, nonbasic] @ x[nonbasic]
    x[basis] = np.linalg.solve(A[:, basis], rhs)
    return x


def _validate(c, A, b, lo, hi):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,) or lo.shape != (n,) or hi.shape != (n,):
        raise InputError("inconsistent LP dimensions")
    if not np.isfinite(A).all() or not np.isfinite(b).all():
        raise InputError("LP rows must be finite")
    if np.isnan(hi).any():
        raise InputError("variable upper bound is NaN")
    if (lo > hi).any():
        raise InputError("variable lower bound exceeds upper bound")
    if (~np.isfinite(lo)).any():
        raise InputError("every variable needs a finite lower bound")
    return c, A, b, lo, hi


def solve_bounded_lp(c, A, b, lo, hi, tol: float = 1e-7, max_iter: int = 10000) -> SimplexResult:
    """Minimize c @ x subject to A @ x == b and lo <= x <= hi."""
    c, A, b, lo, hi = _validate(c, A, b, lo, hi)
    m, n = A.shape

    x0 = lo.copy()
    residual = b - A @ x0
    signs = np.where(residual < 0.0, -1.0, 1.0)
    A1 = np.hstack([A * signs[:, None], np.eye(m)])
    b1 = b * signs
    lo1 = np.concatenate([lo, np.zeros(m)]).tolist()
    hi1 = np.concatenate([hi, np.full(m, np.inf)]).tolist()
    x1 = np.concatenate([x0, np.abs(residual)]).tolist()
    basis = list(range(n, n + m))

    # the artificials start basic, so B is the identity and B^-1 A1 is A1
    T = A1.copy()
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    d = c1 - A1.T @ np.ones(m)
    sense = np.concatenate([np.where(hi > lo, 1.0, 0.0), np.zeros(m)])
    used = _pivot(T, d, x1, basis, sense, lo1, hi1, tol, max_iter)
    x = _basic_values(A1, b1, x1, basis)
    art_sum = float(x[n:].sum())
    if art_sum > tol:
        return SimplexResult(
            status="infeasible",
            x=x[:n].copy(),
            objective=art_sum,
            iterations=used,
        )

    # pin the artificials at zero and optimize the real objective
    hi1[n:] = [0.0] * m
    x[n:] = 0.0
    sense[n:] = 0.0
    x = _basic_values(A1, b1, x, basis)
    used2 = 0
    if c.any():
        c2 = np.concatenate([c, np.zeros(m)])
        d = c2 - c2[basis] @ T
        x1 = x.tolist()
        used2 = _pivot(T, d, x1, basis, sense, lo1, hi1, tol, max_iter - used)
        x = _basic_values(A1, b1, x1, basis)
    if used2 == -1:
        return SimplexResult(
            status="unbounded",
            x=x[:n].copy(),
            objective=-np.inf,
            iterations=used,
        )
    x = x[:n].copy()
    return SimplexResult(
        status="optimal",
        x=x,
        objective=float(c @ x),
        iterations=used + used2,
    )
