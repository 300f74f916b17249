"""Grid feasibility black box built on a DC optimal power flow.

A small transmission network is read from a text file: buses, dispatchable
generators, lines with reactances and optional megawatt limits, fixed
loads, and exactly two renewable slots.  A point (p1, p2) fixes the two
renewable injections; the classifier labels it 1 when some dispatch of the
remaining generators balances the system without violating line limits.

The power flow is the standard DC approximation: per line, flow times
reactance equals the angle difference of its end buses; per bus, outgoing
minus incoming flow equals net injection.  Feasibility is decided by the
phase-one simplex, on a program prepared once per network; the dispatch
entry point also runs phase two to get the least-cost generator schedule.

`lp_feasible` is the cold reference: one phase-one solve per call, nothing
kept.  The classifier from `make_dcopf_classifier` keeps the feasible bases
its solves end on.  The right side is affine in (p1, p2), so each such basis
certifies a convex region of the plane (a critical region of multiparametric
LP), and a later query inside a kept region is answered 1 without a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .classifier import Classifier
from .errors import InputError
from .geometry import XY, Domain
# solve_bounded_lp stays importable here: bench/tracing.py wraps dcopf.solve_bounded_lp
from .simplex import BoundedLP, solve_bounded_lp  # noqa: F401

DEFAULT_NETWORK_RESOURCE = "ieee5_renewables.txt"


@dataclass(frozen=True)
class Generator:
    bus: int
    cost: float
    capacity: float


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    reactance: float
    limit: float  # math.inf when uncapped


@dataclass(frozen=True)
class RenewableSlot:
    bus: int
    rating: float


@dataclass(frozen=True)
class Network:
    buses: tuple[int, ...]
    generators: tuple[Generator, ...]
    lines: tuple[Line, ...]
    loads: dict[int, float]
    slots: tuple[RenewableSlot, ...]

    @property
    def reference_bus(self) -> int:
        """Lowest-numbered bus holding a dispatchable generator."""
        return min(g.bus for g in self.generators)

    def slot_domain(self) -> Domain:
        a, b = self.slots
        return Domain(0.0, a.rating, 0.0, b.rating)


def parse_network(text: str) -> Network:
    """Parse the sectioned network description.

    Sections are [buses], [generators], [lines], [loads] and
    [renewable_slots]; '#' starts a comment.  Fields are whitespace
    separated; line limits may be 'inf'.
    """
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise InputError(f"line {lineno}: data before any section header")
        sections[current].append((lineno, line.split()))

    for needed in ("buses", "generators", "lines", "loads", "renewable_slots"):
        if needed not in sections:
            raise InputError(f"missing [{needed}] section")

    def fnum(lineno: int, token: str, what: str) -> float:
        try:
            v = float(token)
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad {what} {token!r}") from exc
        if math.isnan(v):
            raise InputError(f"line {lineno}: {what} is NaN")
        return v

    def inum(lineno: int, token: str, what: str) -> int:
        try:
            return int(token)
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad {what} {token!r}") from exc

    buses: list[int] = []
    for lineno, toks in sections["buses"]:
        if len(toks) != 1:
            raise InputError(f"line {lineno}: bus rows carry a single id")
        b = inum(lineno, toks[0], "bus id")
        if b in buses:
            raise InputError(f"line {lineno}: duplicate bus {b}")
        buses.append(b)
    bus_set = set(buses)

    def known_bus(lineno: int, token: str) -> int:
        b = inum(lineno, token, "bus id")
        if b not in bus_set:
            raise InputError(f"line {lineno}: unknown bus {b}")
        return b

    generators = []
    for lineno, toks in sections["generators"]:
        if len(toks) != 3:
            raise InputError(f"line {lineno}: generator rows are 'bus cost capacity'")
        cost = fnum(lineno, toks[1], "cost")
        if math.isinf(cost):
            raise InputError(f"line {lineno}: cost must be finite")
        cap = fnum(lineno, toks[2], "capacity")
        if cap <= 0 or math.isinf(cap):
            raise InputError(f"line {lineno}: capacity must be positive and finite")
        generators.append(Generator(known_bus(lineno, toks[0]), cost, cap))
    if not generators:
        raise InputError("network needs at least one dispatchable generator")

    lines = []
    for lineno, toks in sections["lines"]:
        if len(toks) != 4:
            raise InputError(
                f"line {lineno}: line rows are 'from to reactance limit'"
            )
        x = fnum(lineno, toks[2], "reactance")
        if x <= 0:
            raise InputError(f"line {lineno}: reactance must be positive")
        limit = fnum(lineno, toks[3], "limit")
        if limit <= 0:
            raise InputError(f"line {lineno}: limit must be positive or inf")
        from_bus, to_bus = known_bus(lineno, toks[0]), known_bus(lineno, toks[1])
        if from_bus == to_bus:
            raise InputError(f"line {lineno}: line joins bus {from_bus} to itself")
        lines.append(Line(from_bus, to_bus, x, limit))
    if not lines:
        raise InputError("network needs at least one line")

    loads: dict[int, float] = {}
    for lineno, toks in sections["loads"]:
        if len(toks) != 2:
            raise InputError(f"line {lineno}: load rows are 'bus demand'")
        b = known_bus(lineno, toks[0])
        d = fnum(lineno, toks[1], "demand")
        if d < 0 or math.isinf(d):
            raise InputError(f"line {lineno}: demand must be finite and non-negative")
        loads[b] = loads.get(b, 0.0) + d

    slots = []
    for lineno, toks in sections["renewable_slots"]:
        if len(toks) != 2:
            raise InputError(f"line {lineno}: slot rows are 'bus rating'")
        rating = fnum(lineno, toks[1], "rating")
        if rating <= 0 or math.isinf(rating):
            raise InputError(f"line {lineno}: rating must be positive and finite")
        slots.append(RenewableSlot(known_bus(lineno, toks[0]), rating))
    if len(slots) != 2:
        raise InputError(
            f"expected exactly two renewable slots for a planar study, got {len(slots)}"
        )

    return Network(
        buses=tuple(buses),
        generators=tuple(generators),
        lines=tuple(lines),
        loads=loads,
        slots=tuple(slots),
    )


def load_network(path: str | Path) -> Network:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read network file {p}: {exc}") from exc
    return parse_network(text)


def default_network() -> Network:
    """The packaged five-bus study network."""
    text = (
        resources.files("edgewalk.data")
        .joinpath(DEFAULT_NETWORK_RESOURCE)
        .read_text()
    )
    return parse_network(text)


@dataclass
class FeasibilityLP:
    """Equality-form program whose right side varies with the injections.

    Columns: dispatchable generation g, the angles t of every bus but the
    reference, line flows f.  Rows, one per line and then one per bus:

        [0 | D | X  ] (g, t, f) = 0       flow times reactance is the angle drop
        [G | 0 | Inc] (g, t, f) = -load   outflow minus generation

    D has -1 at a line's from-bus and +1 at its to-bus, X is the diagonal
    of reactances, G has -1 at each generator's bus, and Inc has +1 where a
    line leaves a bus and -1 where it enters.  The injections add to the
    two slot buses' rows (rhs).  program is the simplex program over the
    matrix and the variable bounds, prepared once by build_feasibility_lp;
    program.A, .lo and .hi hold them.
    """

    b_base: np.ndarray
    cost: np.ndarray
    slot_rows: tuple[int, int]
    program: BoundedLP

    def rhs(self, injections: tuple[float, float]) -> np.ndarray:
        b = self.b_base.copy()
        b[self.slot_rows[0]] += injections[0]
        b[self.slot_rows[1]] += injections[1]
        return b


def build_feasibility_lp(net: Network) -> FeasibilityLP:
    ng, nb, nl = len(net.generators), len(net.buses), len(net.lines)
    at_bus = np.array(net.buses)[:, None]
    leaves = (at_bus == [ln.from_bus for ln in net.lines]).astype(float)
    enters = (at_bus == [ln.to_bus for ln in net.lines]).astype(float)
    # enters - leaves, not -Inc.T, which would store -0.0
    D = (enters - leaves).T[:, at_bus[:, 0] != net.reference_bus]
    G = np.where(at_bus == [g.bus for g in net.generators], -1.0, 0.0)
    A = np.block([
        [np.zeros((nl, ng)), D, np.diag([ln.reactance for ln in net.lines])],
        [G, np.zeros((nb, nb - 1)), leaves - enters],
    ])

    # biggest flow any single line could carry, for safe finite bounds
    heaviest = sum(g.capacity for g in net.generators)
    heaviest += sum(s.rating for s in net.slots)
    heaviest += sum(net.loads.values())
    cap = [ln.limit if math.isfinite(ln.limit) else heaviest for ln in net.lines]
    angle_span = 1.0 + sum(ln.reactance * c for ln, c in zip(net.lines, cap))
    span = np.full(nb - 1, angle_span)
    lo = np.concatenate([np.zeros(ng), -span, np.negative(cap)])
    hi = np.concatenate([[g.capacity for g in net.generators], span, cap])
    b = np.concatenate([np.zeros(nl), [-net.loads.get(k, 0.0) for k in net.buses]])
    cost = np.concatenate([[g.cost for g in net.generators], np.zeros(nb - 1 + nl)])
    r1, r2 = (nl + net.buses.index(s.bus) for s in net.slots)
    return FeasibilityLP(b, cost, (r1, r2), BoundedLP(A, lo, hi))


def lp_feasible(lp: FeasibilityLP, injections: tuple[float, float]) -> bool:
    """Phase-one verdict for one pair of renewable injections.

    Solves on the network's prepared program and stops at the verdict: no
    dispatch is computed, and nothing is kept between calls.
    """
    return lp.program.feasible(lp.rhs(injections))


@dataclass
class DispatchResult:
    feasible: bool
    cost: float | None
    generation: list[tuple[Generator, float]]
    flows: list[tuple[Line, float]]
    angles: dict[int, float]


def dispatch(net: Network, injections: tuple[float, float]) -> DispatchResult:
    """Least-cost generator schedule for fixed renewable injections."""
    lp = build_feasibility_lp(net)
    res = lp.program.solve(lp.cost, lp.rhs(injections))
    if res.status == "infeasible":
        return DispatchResult(False, None, [], [], {})
    ng, nl, ref = len(net.generators), len(net.lines), net.reference_bus
    gen, theta, flow = np.split(res.x, [ng, len(res.x) - nl])
    angles = dict(zip([b for b in net.buses if b != ref], theta.tolist()))
    return DispatchResult(
        feasible=True,
        cost=float(res.objective),
        generation=list(zip(net.generators, gen.tolist())),
        flows=list(zip(net.lines, flow.tolist())),
        angles={ref: 0.0} | angles,
    )


class _FeasibleBases:
    """The feasible bases a classifier's solves ended on, as affine maps.

    A phase-one solve that ends feasible with only structural columns basic
    fixes each nonbasic column at a bound, so the basic values at any (p1, p2)
    are x_B = B^-1 (b(p) - N x_N) = g + p1 u1 + p2 u2.  Where all of them lie
    within their bounds, that x meets every row and bound, and the point is
    feasible.  The check takes the bounds as they are, with no margin, which
    is stricter than the solver's phase-one tolerance: a point it certifies is
    one the solver also calls feasible.  Any other point gets a cold solve, so
    every 0 comes from the simplex.

    One entry per distinct basis (its columns and the bounds its nonbasic
    columns sit at); the rows (g, u1, u2) of all entries are stacked, so one
    product checks them all.
    """

    def __init__(self, lp: FeasibilityLP):
        self.lp = lp
        self._m, self._n = lp.program.shape
        self._keys: set[tuple] = set()
        self._maps = np.empty((0, 3))
        self._lo = np.empty(0)
        self._hi = np.empty(0)

    def label(self, p: XY) -> int:
        if self._keys:
            v = self._maps @ (1.0, p[0], p[1])
            inside = (v >= self._lo) & (v <= self._hi)
            if inside.reshape(-1, self._m).all(axis=1).any():
                return 1
        feasible, basis, x = self.lp.program.phase_one(self.lp.rhs(p))
        if feasible and max(basis) < self._n:
            self._keep(basis, x[: self._n])
        return 1 if feasible else 0

    def _keep(self, basis: list[int], x: np.ndarray) -> None:
        program = self.lp.program
        cols = sorted(basis)
        nonbasic = np.ones(self._n, dtype=bool)
        nonbasic[cols] = False
        key = (tuple(cols), x[nonbasic].tobytes())
        if key in self._keys:
            return
        self._keys.add(key)
        B_inv = np.linalg.inv(program.A[:, cols])
        g = B_inv @ (self.lp.b_base - program.A[:, nonbasic] @ x[nonbasic])
        r1, r2 = self.lp.slot_rows
        new = np.column_stack([g, B_inv[:, r1], B_inv[:, r2]])
        self._maps = np.vstack([self._maps, new])
        self._lo = np.concatenate([self._lo, program.lo[cols]])
        self._hi = np.concatenate([self._hi, program.hi[cols]])


def make_dcopf_classifier(net: Network) -> Classifier:
    """Black box labeling injection pairs by grid feasibility.

    Unlike `lp_feasible`, the classifier keeps state between queries: the
    feasible bases its phase-one solves end on.  A query inside the region
    one of them certifies is labeled 1 without a solve; every other query
    gets a cold solve.  Labels equal `lp_feasible`'s in any query order.
    """
    lp = build_feasibility_lp(net)
    bases = _FeasibleBases(lp)
    return Classifier(label_fn=bases.label, domain=net.slot_domain(), name="dcopf")
