"""Span recorder for the traced benchmark run.

The traced run wraps the public names that `edgewalk.cli`, `edgewalk.walk`,
`edgewalk.metrics` and `edgewalk.dcopf` import, plus `Classifier.query`,
so every call into a layer becomes one span: name, start, end, parent span
and pass id.  Spans live in flat arrays while the run lasts and are written
out once, when it ends.  Nothing under `src/` changes; the wrappers are
installed only for the traced passes and removed afterwards.

The program is single-threaded, so spans nest as a call stack and sibling
spans never overlap.  A span's self time is therefore its duration minus
the summed durations of its direct children.
"""

from __future__ import annotations

import time
import tracemalloc
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# which estimator a span ran under, so oracle work splits walk / grid
SIDE_NONE, SIDE_WALK, SIDE_GRID = 0, 1, 2
SIDE_NAMES = {SIDE_WALK: "walk", SIDE_GRID: "grid"}

ROOT = "pass"


class Tracer:
    """In-memory span store plus per-pass counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.side_col = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.side = SIDE_NONE
        self.pass_no = -1
        self.bounds: list[tuple[int, int]] = []
        self.counters: list[defaultdict] = []
        self.measure_alloc = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @property
    def count(self) -> defaultdict:
        """Counters of the current pass."""
        return self.counters[self.pass_no]

    def begin_pass(self) -> None:
        self.pass_no += 1
        self.counters.append(defaultdict(float))
        self.bounds.append((len(self.start), len(self.start)))

    def end_pass(self) -> None:
        self.bounds[-1] = (self.bounds[-1][0], len(self.start))

    def record(self, name: str, t0: float, t1: float, parent: int = -1) -> int:
        """Append one finished span of the current pass; returns its index."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.pass_id.append(self.pass_no)
        self.side_col.append(self.side)
        self.start.append(t0)
        self.end.append(t1)
        return idx

    def wrap(self, name, fn, side=None, hook=None, alloc=False):
        """Return fn wrapped so each call records one span.

        side marks the span's subtree as walk or grid work; hook(tracer,
        args, result) updates counters after a call returns; alloc measures
        the call's peak traced allocation on the memory pass.
        """
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.pass_id.append(self.pass_no)
            prev_side = self.side
            if side is not None:
                self.side = side
            self.side_col.append(self.side)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            tracing_mem = alloc and self.measure_alloc
            if tracing_mem:
                tracemalloc.start()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if tracing_mem:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = f"{name}.peak_alloc_bytes"
                    self.count[key] = max(self.count[key], peak)
                stack.pop()
                self.side = prev_side
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    @contextmanager
    def run_pass(self):
        """Open one pass: a new pass id, its counters and its root span."""
        self.begin_pass()
        idx = self.record(ROOT, time.perf_counter(), 0.0)
        self.stack.append(idx)
        try:
            yield self.pass_no
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()
            self.end_pass()

    def pass_wall(self, pass_no: int) -> float:
        root = self.bounds[pass_no][0]
        return self.end[root] - self.start[root]

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Copies of the span columns for indices lo..hi."""
        hi = len(self.start) if hi is None else hi
        return {
            "name": np.array(self.name[lo:hi], dtype=np.int32),
            "parent": np.array(self.parent[lo:hi], dtype=np.int32),
            "pass_id": np.array(self.pass_id[lo:hi], dtype=np.int32),
            "side": np.array(self.side_col[lo:hi], dtype=np.int8),
            "start": np.array(self.start[lo:hi], dtype=np.float64),
            "end": np.array(self.end[lo:hi], dtype=np.float64),
        }

    def pass_arrays(self, pass_no: int) -> dict[str, np.ndarray]:
        """Span columns of one pass, with parents indexed within the pass."""
        lo, hi = self.bounds[pass_no]
        a = self.arrays(lo, hi)
        a["parent"] = np.where(a["parent"] >= 0, a["parent"] - lo, -1)
        return a

    def write(self, path) -> None:
        """Write every span, with the name table, as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


# --- wrappers ---------------------------------------------------------------


def _on_run_edge(tr, args, est):
    c = tr.count
    c["walk.queries.seed"] += est.seed_queries
    c["walk.queries.bisection"] += est.bisection_queries
    c["walk.queries.walk"] += est.walk_queries
    c["walk.budget_exhausted"] += est.termination.value == "budget_exhausted"


def _on_solve(tr, args, res):
    side = SIDE_NAMES.get(tr.side)
    if side is None:
        return
    tr.count[f"simplex.pivots.{side}"] += res.iterations
    tr.count[f"simplex.infeasible.{side}"] += res.status == "infeasible"


def _on_marching(tr, args, polylines):
    from edgewalk.marching import node_axes

    xs, ys = node_axes(args[2], args[3])
    tr.count["marching.nodes"] += len(xs) * len(ys)
    tr.count["marching.vertices"] += sum(len(p) for p in polylines)


def _on_reference(tr, args, reference):
    tr.count["metrics.reference_points"] += len(reference.points)


def _targets():
    """(module or class, attribute, span name, wrap options) to patch."""
    from edgewalk import cli, classifier, dcopf, metrics, walk

    return [
        (cli, "run_edge", "walk.run_edge", {"side": SIDE_WALK, "hook": _on_run_edge}),
        # shapes-random calls run_edge through the walk module itself
        (walk, "run_edge", "walk.run_edge", {"side": SIDE_WALK, "hook": _on_run_edge}),
        (cli, "run_grid", "grid.run_grid", {"side": SIDE_GRID}),
        (cli, "reference_from_scalar", "metrics.reference_from_scalar", {"hook": _on_reference}),
        (cli, "asd_to_reference", "metrics.asd_to_reference", {}),
        (cli, "render_boundary_svg", "svgplot.render_boundary_svg", {}),
        (cli, "make_test_classifier", "classifier.make_test_classifier", {}),
        (cli, "make_dcopf_classifier", "dcopf.make_dcopf_classifier", {}),
        (cli, "default_network", "dcopf.default_network", {}),
        (classifier.Classifier, "query", "classifier.query", {}),
        (walk, "circle_circle_intersection", "geometry.circle_circle_intersection", {}),
        (walk, "select_forward", "geometry.select_forward", {}),
        (walk, "perimeter_circle_intersection", "geometry.perimeter_circle_intersection", {}),
        (metrics, "marching_squares", "marching.marching_squares", {"hook": _on_marching, "alloc": True}),
        (dcopf, "solve_bounded_lp", "simplex.solve_bounded_lp", {"hook": _on_solve}),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, opts in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, **opts))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics ------------------------------------------------------

PER_LAYER_UNITS = {
    "cli.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "walk.busy_s": "s",
    "walk.self_s": "s",
    "walk.self_us_per_query": "us",
    "walk.queries.seed": "count",
    "walk.queries.bisection": "count",
    "walk.queries.walk": "count",
    "walk.budget_exhausted": "count",
    "geometry.circle_calls": "count",
    "geometry.rim_calls": "count",
    "geometry.busy_s": "s",
    "classifier.queries": "count",
    "classifier.busy_s": "s",
    "classifier.query_us.p50": "us",
    "classifier.query_us.p99": "us",
    "dcopf.setup_s": "s",
    **{
        f"simplex.{m}.{side}": unit
        for side in ("walk", "grid")
        for m, unit in (
            ("solves", "count"),
            ("busy_s", "s"),
            ("pivots_per_solve", "count"),
            ("solve_us.p50", "us"),
            ("solve_us.p99", "us"),
            ("solves_per_query", "ratio"),
            ("infeasible_ratio", "ratio"),
        )
    },
    "grid.busy_s": "s",
    "grid.self_s": "s",
    "grid.queries": "count",
    "marching.busy_s": "s",
    "marching.nodes": "count",
    "marching.vertices": "count",
    "marching.peak_alloc_mb": "MB",
    "metrics.reference_s": "s",
    "metrics.reference_points": "count",
    "metrics.asd_s": "s",
    "svgplot.busy_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.unattributed_s": "s",
}


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_spans(tracer: Tracer, pass_no: int):
    """Name ids, sides, durations and self times of one pass's spans."""
    a = tracer.pass_arrays(pass_no)
    selfs = self_times(a["parent"], a["start"], a["end"])
    return a["name"], a["side"], a["end"] - a["start"], selfs


def pass_metrics(tracer: Tracer, pass_no: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (untraced wall filled later)."""
    name, side, dur, selfs = _pass_spans(tracer, pass_no)
    ids = {n: k for k, n in enumerate(tracer.names)}

    def mask(span: str) -> np.ndarray:
        return name == ids.get(span, -1)

    def busy(span: str) -> float:
        return float(dur[mask(span)].sum())

    def own(span: str) -> float:
        return float(selfs[mask(span)].sum())

    counters = tracer.counters[pass_no]
    query = mask("classifier.query")
    q_dur = dur[query]
    walk_queries = int((query & (side == SIDE_WALK)).sum())
    grid_queries = int((query & (side == SIDE_GRID)).sum())
    root = mask(ROOT)

    m = {
        "cli.busy_s": busy("cli.main"),
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": counters["cli.bytes_written"],
        "walk.busy_s": busy("walk.run_edge"),
        "walk.queries.seed": counters["walk.queries.seed"],
        "walk.queries.bisection": counters["walk.queries.bisection"],
        "walk.queries.walk": counters["walk.queries.walk"],
        "walk.budget_exhausted": counters["walk.budget_exhausted"],
        "geometry.circle_calls": int(mask("geometry.circle_circle_intersection").sum()),
        "geometry.rim_calls": int(mask("geometry.perimeter_circle_intersection").sum()),
        "geometry.busy_s": sum(
            busy(n) for n in tracer.names if n.startswith("geometry.")
        ),
        "classifier.queries": int(query.sum()),
        "classifier.busy_s": float(q_dur.sum()),
        "classifier.query_us.p50": _pct(q_dur, 50) * 1e6,
        "classifier.query_us.p99": _pct(q_dur, 99) * 1e6,
        "dcopf.setup_s": busy("dcopf.default_network") + busy("dcopf.make_dcopf_classifier"),
        "grid.busy_s": busy("grid.run_grid"),
        "grid.self_s": own("grid.run_grid"),
        "grid.queries": grid_queries,
        "marching.busy_s": busy("marching.marching_squares"),
        "marching.nodes": counters["marching.nodes"],
        "marching.vertices": counters["marching.vertices"],
        "marching.peak_alloc_mb": 0.0,
        "metrics.reference_s": busy("metrics.reference_from_scalar"),
        "metrics.reference_points": counters["metrics.reference_points"],
        "metrics.asd_s": busy("metrics.asd_to_reference"),
        "svgplot.busy_s": busy("svgplot.render_boundary_svg"),
        "trace.wall_s": float(dur[root].sum()),
        "trace.self_sum_s": float(selfs[~root].sum()),
        "trace.unattributed_s": float(selfs[root].sum()),
    }
    # walk overhead: run_edge minus the oracle calls made inside it
    m["walk.self_s"] = m["walk.busy_s"] - float(q_dur[side[query] == SIDE_WALK].sum())
    m["walk.self_us_per_query"] = _ratio(m["walk.self_s"], walk_queries) * 1e6
    solve = mask("simplex.solve_bounded_lp")
    for code, label in SIDE_NAMES.items():
        s_dur = dur[solve & (side == code)]
        solves = len(s_dur)
        queries = walk_queries if code == SIDE_WALK else grid_queries
        m[f"simplex.solves.{label}"] = solves
        m[f"simplex.busy_s.{label}"] = float(s_dur.sum())
        m[f"simplex.pivots_per_solve.{label}"] = _ratio(counters[f"simplex.pivots.{label}"], solves)
        m[f"simplex.solve_us.p50.{label}"] = _pct(s_dur, 50) * 1e6
        m[f"simplex.solve_us.p99.{label}"] = _pct(s_dur, 99) * 1e6
        m[f"simplex.solves_per_query.{label}"] = _ratio(solves, queries)
        m[f"simplex.infeasible_ratio.{label}"] = _ratio(counters[f"simplex.infeasible.{label}"], solves)
    return m


def layer_self_table(tracer: Tracer, pass_no: int) -> dict[str, tuple[int, float, float]]:
    """Span name -> (calls, busy seconds, self seconds) for one pass."""
    name, _, dur, selfs = _pass_spans(tracer, pass_no)
    table = {}
    for k, n in enumerate(tracer.names):
        hit = name == k
        if hit.any():
            table[n] = (int(hit.sum()), float(dur[hit].sum()), float(selfs[hit].sum()))
    return table
