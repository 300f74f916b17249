"""Bounded-variable simplex for small dense linear programs.

Two-phase primal simplex where every variable carries explicit lower and
upper bounds.  Phase one puts an artificial variable on each equality row
and minimizes their sum; a positive optimum means the program is
infeasible.  Bland's rule keeps pivoting deterministic and cycle-free.

A `BoundedLP` is a prepared program: A and the bounds are validated once,
and what depends only on them (A @ lo, the bounds extended by the
artificial columns, the phase-one cost row, the initial pricing signs) is
kept.  Each solve validates and assembles only what depends on its right
side b and its costs c, so a family of programs that differ only in b, such
as a feasibility oracle asking one per query, pays for that set-up once.
`BoundedLP.feasible` stops at the phase-one verdict, and
`BoundedLP.phase_one` also returns the basis and the values it ends on.
`solve_bounded_lp` prepares a program and solves it once.

Sized for the network programs in this package (tens of variables): the
solver keeps the dense tableau B^-1 [A | I] of the phase-one program with
the reduced costs as its last row, so each pivot updates both with one
rank-one step, and Bland pricing scans that row as a Python list.  The
basic values follow the pivots incrementally; before the phase-one verdict
and before any x is returned they are re-solved once, densely, from the
basis matrix and the nonbasic bounds, so a verdict never rests on
accumulated pivot drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError

_PIVOT_EPS = 1e-10
# optimality and feasibility tolerance, and the pivot limit of one solve
_TOL = 1e-7
_MAX_ITER = 10000


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray
    objective: float
    iterations: int


def _pivot(T, x, basis, sense, lo, hi, max_iter):
    """Pivot until optimal; returns iterations used, or -1 when unbounded.

    T is the tableau B^-1 A with the reduced costs as its last row, x the
    values (a list), basis the basic column of each row, and sense the
    pricing sign of each column (a list): +1 at its lower bound, -1 at its
    upper, 0 when basic or fixed.  All are updated in place.  A bound flip
    counts as an iteration.
    """
    m = len(basis)
    rows = range(m)
    columns = range(len(sense))
    neg_tol = -_TOL
    for it in range(max_iter):
        # Bland: the lowest-index column whose reduced cost improves
        d = T[m].tolist()
        for entering in columns:
            if d[entering] * sense[entering] < neg_tol:
                break
        else:
            return it
        direction = sense[entering]
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
            # one rank-one step moves the rows and the reduced costs
            pivot_row = T[leaving] / w[leaving]
            T -= T[:, entering, None] * pivot_row
            T[leaving] = pivot_row
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


def _validate_program(A, lo, hi):
    A = np.asarray(A, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m, n = A.shape
    if lo.shape != (n,) or hi.shape != (n,):
        raise InputError("inconsistent LP dimensions")
    if not np.isfinite(A).all():
        raise InputError("LP rows must be finite")
    if np.isnan(hi).any():
        raise InputError("variable upper bound is NaN")
    if (lo > hi).any():
        raise InputError("variable lower bound exceeds upper bound")
    if (~np.isfinite(lo)).any():
        raise InputError("every variable needs a finite lower bound")
    return A, lo, hi


def _validate_cost(c, n):
    c = np.asarray(c, dtype=float)
    if c.shape != (n,):
        raise InputError("inconsistent LP dimensions")
    return c


def _validate_rhs(b, m):
    b = np.asarray(b, dtype=float)
    if b.shape != (m,):
        raise InputError("inconsistent LP dimensions")
    if not np.isfinite(b).all():
        raise InputError("LP rows must be finite")
    return b


def _validate(c, A, b, lo, hi):
    """The checks of BoundedLP and of one solve, on all five inputs."""
    A, lo, hi = _validate_program(A, lo, hi)
    m, n = A.shape
    return _validate_cost(c, n), A, _validate_rhs(b, m), lo, hi


def _read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class BoundedLP:
    """The program A @ x == b, lo <= x <= hi, prepared for many b and c.

    Holds read-only copies of A, lo and hi; a solve never writes to what
    the program stores, so solves may come in any order.
    """

    def __init__(self, A, lo, hi):
        A, lo, hi = _validate_program(A, lo, hi)
        m, n = A.shape
        self.shape = (m, n)
        self.A = _read_only(A)
        self.lo = _read_only(lo)
        self.hi = _read_only(hi)
        self._A_lo = _read_only(self.A @ self.lo)
        self._eye = _read_only(np.eye(m))
        self._ones = _read_only(np.ones(m))
        self._c1 = _read_only(np.concatenate([np.zeros(n), np.ones(m)]))
        self._lo_list = self.lo.tolist()
        # bounds and pricing signs over the real then the artificial columns
        self._lo1 = tuple(self._lo_list + [0.0] * m)
        self._hi1 = tuple(self.hi.tolist() + [math.inf] * m)
        self._sense = tuple(np.where(self.hi > self.lo, 1.0, 0.0).tolist() + [0.0] * m)

    def _phase_one(self, b):
        b = _validate_rhs(b, self.shape[0])
        m, n = self.shape
        residual = b - self._A_lo
        signs = np.where(residual < 0.0, -1.0, 1.0)
        # the artificials start basic, so B is the identity and B^-1 A1 is A1
        T = np.empty((m + 1, n + m))
        np.multiply(self.A, signs[:, None], out=T[:m, :n])
        T[:m, n:] = self._eye
        A1 = T[:m].copy()
        np.subtract(self._c1, A1.T @ self._ones, out=T[m])
        b1 = b * signs
        x1 = self._lo_list + np.abs(residual).tolist()
        basis = list(range(n, n + m))
        sense = list(self._sense)
        used = _pivot(T, x1, basis, sense, self._lo1, self._hi1, _MAX_ITER)
        x = _basic_values(A1, b1, x1, basis)
        return A1, b1, T, x, basis, sense, used, float(x[n:].sum())

    def phase_one(self, b) -> tuple[bool, list[int], np.ndarray]:
        """Phase-one verdict with the basis it ends on: (feasible, basis, x).

        basis is the basic column of each row, where columns n and up are
        the artificials; x holds the values of all n + m columns, each
        nonbasic one at a bound and the basic ones solved from them.
        """
        _, _, _, x, basis, _, _, art_sum = self._phase_one(b)
        # the negation of solve's infeasible test, NaN included
        return not art_sum > _TOL, basis, x

    def feasible(self, b) -> bool:
        """Phase-one verdict: whether some x meets A @ x == b within the bounds."""
        return self.phase_one(b)[0]

    def solve(self, c, b) -> SimplexResult:
        """Minimize c @ x subject to A @ x == b and lo <= x <= hi."""
        m, n = self.shape
        c = _validate_cost(c, n)
        A1, b1, T, x, basis, sense, used, art_sum = self._phase_one(b)
        if art_sum > _TOL:
            return SimplexResult(
                status="infeasible",
                x=x[:n].copy(),
                objective=art_sum,
                iterations=used,
            )

        # pin the artificials at zero and optimize the real objective
        hi1 = list(self._hi1)
        hi1[n:] = [0.0] * m
        x[n:] = 0.0
        sense[n:] = [0.0] * m
        x = _basic_values(A1, b1, x, basis)
        used2 = 0
        if c.any():
            c2 = np.concatenate([c, np.zeros(m)])
            T[m] = c2 - c2[basis] @ T[:m]
            x1 = x.tolist()
            used2 = _pivot(T, x1, basis, sense, self._lo1, hi1, _MAX_ITER - used)
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


def solve_bounded_lp(c, A, b, lo, hi) -> SimplexResult:
    """Minimize c @ x subject to A @ x == b and lo <= x <= hi."""
    return BoundedLP(A, lo, hi).solve(c, b)
