"""Command line front end.

Three subcommands: `run` traces one boundary estimate and writes the
probed points, `compare` benchmarks the walk against the exhaustive grid
across several step sizes, and `dispatch` prints the least-cost schedule
of the packaged five-bus network for a fixed pair of renewable
injections.

Exit codes: 0 on success, 2 when no boundary exists in the domain, 3 when
the query budget dies first, 4 for bad input, 5 for geometric failures.
When the budget dies or the geometry fails mid-walk, `run` still writes
the partial estimate.

`run` keeps the --log-queries log itself, by wrapping the classifier's
label function.  It formats each probed point's coordinates once, to 17
significant digits, for both points.csv and queries.csv, and writes each
file row by row without holding its whole text.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from io import StringIO
from pathlib import Path

from .classifier import CANONICAL_SPECS, Classifier, make_test_classifier
from .dcopf import default_network, dispatch, load_network, make_dcopf_classifier
from .errors import (
    BudgetExhaustedError,
    EdgewalkError,
    GeometricFailureError,
    InputError,
    NoBoundaryFoundError,
)
from .geometry import Point2
from .grid import run_grid
from .metrics import asd_to_reference, reference_from_scalar
from .svgplot import render_boundary_svg
from .walk import EdgeConfig, Termination, run_edge


class _Parser(argparse.ArgumentParser):
    # route usage mistakes through the same exit path as other bad input
    def error(self, message):
        raise InputError(message)


def _parse_point(text: str) -> Point2:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"expected a point as 'x,y', got {text!r}")
    try:
        return Point2(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise InputError(f"bad point {text!r}") from exc


def _walk_config(args, epsilon: float) -> EdgeConfig:
    """Walk parameters from the --seed-in, --seed-out and --max-queries options."""
    return EdgeConfig(
        epsilon=epsilon,
        seed_interior=_parse_point(args.seed_in) if args.seed_in else None,
        seed_exterior=_parse_point(args.seed_out) if args.seed_out else None,
        max_queries=args.max_queries,
    )


def _make_classifier(spec: str) -> Classifier:
    if spec == "dcopf":
        return make_dcopf_classifier(default_network())
    if spec.startswith("dcopf:"):
        return make_dcopf_classifier(load_network(spec[len("dcopf:"):]))
    return make_test_classifier(spec)


def _recording(label_fn, log: list):
    """label_fn, also appending each (point, label) it returns to log.

    The pair is appended before Classifier.query checks the label; a
    refused label aborts the run before any file is written, so the log
    that reaches queries.csv holds only accepted queries, in order.
    """
    append = log.append

    def label(p):
        raw = label_fn(p)
        append((p, raw))
        return raw

    return label


def _scalar_spec(spec: str):
    """Field and threshold behind a built-in classifier, if any."""
    key = spec.replace("-", "_").lower()
    return CANONICAL_SPECS.get(key)


def _atomic_write(path: Path, lines: Iterable[str]) -> None:
    """Write lines through a temporary file that then replaces path.

    Lines may be a generator, so a large file's text is never held whole.
    """
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w") as fh:
        fh.writelines(lines)
    os.replace(tmp, path)


# the same bytes as f"{x:.17g},{y:.17g}", in about three quarters of the time
_XY = "%.17g,%.17g"


def _xy_texts(log) -> dict[int, str]:
    """The "x,y" text of each queried point, keyed by id(point).

    Every estimate point is a queried point object, so points.csv and
    queries.csv share one formatting pass.  Keys are identities, not
    values: 0.0 == -0.0, yet the two format differently.  The log keeps the
    points alive, so no id is reused while the texts are in use.
    """
    return {id(p): _XY % p for p, _ in log}


def _points_rows(estimate, texts: dict[int, str] | None = None) -> Iterator[str]:
    """points.csv lines: the estimate's points in append order.

    Points found in texts (from _xy_texts) reuse their text; the rest are
    formatted here.
    """
    get = (texts or {}).get
    next_inner = iter(estimate.inner).__next__
    next_outer = iter(estimate.outer).__next__
    yield "x,y,label,order\n"
    for order, label in enumerate(estimate.labels_order):
        p = next_inner() if label == 1 else next_outer()
        yield f"{get(id(p)) or _XY % p},{label},{order}\n"


def _points_csv(estimate) -> str:
    """The text of points.csv for an estimate."""
    return "".join(_points_rows(estimate))


def _queries_rows(log, texts: dict[int, str]) -> Iterator[str]:
    """queries.csv lines: every logged query in order, with texts from _xy_texts."""
    yield "order,x,y,label\n"
    for order, (p, label) in enumerate(log):
        yield f"{order},{texts[id(p)]},{label}\n"


def _cmd_run(args) -> int:
    classifier = _make_classifier(args.classifier)
    log: list[tuple[Point2, int]] = []
    if args.log_queries:
        classifier.label_fn = _recording(classifier.label_fn, log)
    config = _walk_config(args, args.epsilon)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    estimate = run_edge(classifier, config)
    wall = time.perf_counter() - t0

    texts = _xy_texts(log) if args.log_queries else None
    _atomic_write(out / "points.csv", _points_rows(estimate, texts))
    report = {
        "classifier": classifier.name,
        "epsilon": args.epsilon,
        "termination": str(estimate.termination.value),
        "total_queries": estimate.total_queries,
        "seed_queries": estimate.seed_queries,
        "bisection_queries": estimate.bisection_queries,
        "walk_queries": estimate.walk_queries,
        "inner_points": len(estimate.inner),
        "outer_points": len(estimate.outer),
        "wall_seconds": wall,
    }

    polylines = []
    if args.reference_cell is not None:
        spec = _scalar_spec(args.classifier)
        if spec is None:
            raise InputError(
                "no scalar reference available for this classifier; "
                "--reference-cell only applies to the built-in level sets"
            )
        reference = reference_from_scalar(
            spec.fn, spec.threshold, classifier.domain, args.reference_cell
        )
        polylines = reference.polylines
        breakdown = asd_to_reference(estimate.inner, estimate.outer, reference)
        report["asd_inner"] = breakdown.inner
        report["asd_outer"] = breakdown.outer
        report["asd"] = breakdown.total

    if args.plot:
        svg = render_boundary_svg(
            classifier.domain,
            estimate.inner,
            estimate.outer,
            polylines,
            title=f"{classifier.name}  eps={args.epsilon:g}",
        )
        _atomic_write(out / "plot.svg", [svg])
    if args.log_queries:
        _atomic_write(out / "queries.csv", _queries_rows(log, texts))

    _atomic_write(out / "report.json", [json.dumps(report, indent=2) + "\n"])
    print(
        f"{classifier.name}: {estimate.termination.value} after "
        f"{estimate.total_queries} queries "
        f"({len(estimate.inner)} inner, {len(estimate.outer)} outer) "
        f"-> {out / 'points.csv'}"
    )
    if estimate.termination is Termination.BUDGET_EXHAUSTED:
        return 3
    if estimate.termination is Termination.FAILED:
        print(f"error: {estimate.failure}", file=sys.stderr)
        return 5
    return 0


def _cmd_compare(args) -> int:
    epsilons = []
    for tok in args.epsilons.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            epsilons.append(float(tok))
        except ValueError as exc:
            raise InputError(f"bad epsilon {tok!r}") from exc
    if not epsilons:
        raise InputError("no epsilons given")

    configs = [_walk_config(args, eps) for eps in epsilons]
    spec = _scalar_spec(args.classifier)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for config in configs:
        eps = config.epsilon
        c_edge = _make_classifier(args.classifier)
        t0 = time.perf_counter()
        estimate = run_edge(c_edge, config)
        edge_wall = time.perf_counter() - t0
        if estimate.termination is Termination.FAILED:
            raise GeometricFailureError(estimate.failure)

        c_grid = _make_classifier(args.classifier)
        t0 = time.perf_counter()
        grid = run_grid(c_grid, eps)
        grid_wall = time.perf_counter() - t0

        row = {
            "classifier": c_edge.name,
            "epsilon": eps,
            "edge_queries": estimate.total_queries,
            "grid_queries": grid.total_queries,
            "edge_wall_seconds": edge_wall,
            "grid_wall_seconds": grid_wall,
            "edge_asd": "",
            "grid_asd": "",
        }
        if spec is not None:
            reference = reference_from_scalar(
                spec.fn, spec.threshold, c_edge.domain, eps / 10.0
            )
            row["edge_asd"] = asd_to_reference(
                estimate.inner, estimate.outer, reference
            ).total
            row["grid_asd"] = asd_to_reference(
                grid.inner, grid.outer, reference
            ).total
        rows.append(row)
        print(
            f"{c_edge.name} eps={eps:g}: edge {estimate.total_queries} queries "
            f"/ {edge_wall:.3f}s, grid {grid.total_queries} queries "
            f"/ {grid_wall:.3f}s"
        )

    fields = list(rows[0].keys())
    buf = StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write(out / "table.csv", [buf.getvalue()])
    _atomic_write(out / "report.json", [json.dumps(rows, indent=2) + "\n"])
    print(f"-> {out / 'table.csv'}")
    return 0


def _cmd_dispatch(args) -> int:
    net = load_network(args.network) if args.network else default_network()
    result = dispatch(net, (args.p1, args.p2))
    if args.json:
        payload = {"feasible": result.feasible}
        if result.feasible:
            payload["cost"] = result.cost
            payload["generation"] = [
                {"bus": g.bus, "output": p} for g, p in result.generation
            ]
            payload["flows"] = [
                {"from": ln.from_bus, "to": ln.to_bus, "flow": f}
                for ln, f in result.flows
            ]
            payload["angles"] = {str(b): a for b, a in result.angles.items()}
        print(json.dumps(payload, indent=2))
        return 0
    if not result.feasible:
        print(f"injections ({args.p1:g}, {args.p2:g}): infeasible")
        return 0
    print(f"injections ({args.p1:g}, {args.p2:g}): feasible, cost {result.cost:.4f}")
    for g, p in result.generation:
        print(f"  gen at bus {g.bus}: {p:.4f} / {g.capacity:g}")
    for ln, f in result.flows:
        lim = "inf" if ln.limit == float("inf") else f"{ln.limit:g}"
        print(f"  line {ln.from_bus}-{ln.to_bus}: {f:+.4f} / {lim}")
    return 0


def _add_classifier_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "classifier",
        help="rosenbrock | goldstein-price | beale | dcopf | dcopf:<network-file>",
    )


def _add_walk_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed-in", help="interior seed as 'x,y'")
    p.add_argument("--seed-out", help="exterior seed as 'x,y'")
    p.add_argument(
        "--max-queries",
        type=int,
        default=None,
        help="query budget (default: 10 * perimeter / epsilon)",
    )
    p.add_argument("--out", default="out", help="output directory (default: out)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="edgewalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="trace one boundary estimate")
    _add_classifier_arg(run_p)
    run_p.add_argument("--epsilon", type=float, required=True, help="step size")
    _add_walk_args(run_p)
    run_p.add_argument(
        "--reference-cell",
        type=float,
        default=None,
        help="also score against a contour reference with this cell size",
    )
    run_p.add_argument("--plot", action="store_true", help="write plot.svg")
    run_p.add_argument(
        "--log-queries", action="store_true", help="write every probe to queries.csv"
    )
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="benchmark the walk against the grid")
    _add_classifier_arg(cmp_p)
    cmp_p.add_argument(
        "--epsilons", required=True, help="comma-separated step sizes"
    )
    _add_walk_args(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    dis_p = sub.add_parser("dispatch", help="least-cost schedule for one injection pair")
    dis_p.add_argument("p1", type=float, help="first renewable injection")
    dis_p.add_argument("p2", type=float, help="second renewable injection")
    dis_p.add_argument(
        "--network", default=None, help="network file (default: packaged five-bus)"
    )
    dis_p.add_argument("--json", action="store_true", help="machine-readable output")
    dis_p.set_defaults(func=_cmd_dispatch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NoBoundaryFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GeometricFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except EdgewalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
