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
        cap = fnum(lineno, toks[2], "capacity")
        if cap <= 0:
            raise InputError(f"line {lineno}: capacity must be positive")
        generators.append(
            Generator(known_bus(lineno, toks[0]), fnum(lineno, toks[1], "cost"), cap)
        )
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

    Variable order: dispatchable generation, then bus angles without the
    reference bus, then line flows.  Rows: one per line tying flow to the
    angle drop, one per bus balancing power.  program is the simplex
    program over the constraint matrix and the variable bounds, prepared
    once by build_feasibility_lp; program.A, .lo and .hi hold them.
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
    ng = len(net.generators)
    nb = len(net.buses)
    nl = len(net.lines)
    bus_index = {b: k for k, b in enumerate(net.buses)}
    ref = net.reference_bus

    # angle columns exist for every bus except the reference
    theta_col: dict[int, int] = {}
    col = ng
    for b in net.buses:
        if b != ref:
            theta_col[b] = col
            col += 1
    flow_col = {k: col + k for k in range(nl)}
    n = col + nl

    # biggest flow any single line could carry, for safe finite bounds
    heaviest = sum(g.capacity for g in net.generators)
    heaviest += sum(s.rating for s in net.slots)
    heaviest += sum(net.loads.values())
    angle_span = 1.0 + sum(
        ln.reactance * (ln.limit if math.isfinite(ln.limit) else heaviest)
        for ln in net.lines
    )

    m = nl + nb
    A = np.zeros((m, n))
    b = np.zeros(m)
    lo = np.zeros(n)
    hi = np.zeros(n)
    cost = np.zeros(n)

    for k, g in enumerate(net.generators):
        lo[k] = 0.0
        hi[k] = g.capacity
        cost[k] = g.cost
    for bcol in theta_col.values():
        lo[bcol] = -angle_span
        hi[bcol] = angle_span
    for k, ln in enumerate(net.lines):
        cap = ln.limit if math.isfinite(ln.limit) else heaviest
        lo[flow_col[k]] = -cap
        hi[flow_col[k]] = cap

    for k, ln in enumerate(net.lines):
        A[k, flow_col[k]] = ln.reactance
        if ln.from_bus != ref:
            A[k, theta_col[ln.from_bus]] = -1.0
        if ln.to_bus != ref:
            A[k, theta_col[ln.to_bus]] = 1.0

    for bus, bi in bus_index.items():
        row = nl + bi
        for k, ln in enumerate(net.lines):
            if ln.from_bus == bus:
                A[row, flow_col[k]] = 1.0
            elif ln.to_bus == bus:
                A[row, flow_col[k]] = -1.0
        for k, g in enumerate(net.generators):
            if g.bus == bus:
                A[row, k] = -1.0
        b[row] = -net.loads.get(bus, 0.0)

    slot_rows = tuple(nl + bus_index[s.bus] for s in net.slots)
    return FeasibilityLP(
        b_base=b,
        cost=cost,
        slot_rows=slot_rows,  # type: ignore[arg-type]
        program=BoundedLP(A, lo, hi),
    )


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
    ng = len(net.generators)
    nb_nonref = len(net.buses) - 1
    angles = {net.reference_bus: 0.0}
    k = ng
    for bus in net.buses:
        if bus != net.reference_bus:
            angles[bus] = float(res.x[k])
            k += 1
    flows = [
        (ln, float(res.x[ng + nb_nonref + i])) for i, ln in enumerate(net.lines)
    ]
    generation = [(g, float(res.x[i])) for i, g in enumerate(net.generators)]
    return DispatchResult(
        feasible=True,
        cost=float(res.objective),
        generation=generation,
        flows=flows,
        angles=angles,
    )


def make_dcopf_classifier(net: Network) -> Classifier:
    """Black box labeling injection pairs by grid feasibility."""
    lp = build_feasibility_lp(net)
    domain = net.slot_domain()

    def label(p: XY) -> int:
        return 1 if lp_feasible(lp, p) else 0

    return Classifier(label_fn=label, domain=domain, name="dcopf")
