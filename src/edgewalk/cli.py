"""Command line front end.

Three subcommands: `run` traces one boundary estimate and writes the
probed points, `compare` benchmarks the walk against the exhaustive grid
across several step sizes, and `dispatch` prints the least-cost schedule
of the packaged five-bus network for a fixed pair of renewable
injections.

Exit codes: 0 on success, 1 when an output cannot be written (or for any
other package error), 2 when no boundary exists in the domain, 3 when the
query budget dies first, 4 for bad input, 5 for geometric failures.
`main` is the one place where an error becomes an exit code: each
subcommand raises, and `main` prints the one `error: ...` line on stderr
and picks the code.  When the budget dies or the geometry fails
mid-walk, `run` still writes the partial estimate, then raises.
`compare` records each walk's termination in its `edge_termination`
column; when a walk's budget dies first it still writes both files
before it raises.

`run` writes points.csv, and queries.csv under --log-queries, from the
estimate alone, with one writer and in one pass over it.  queries.csv
opens with the seed scan's probes, regenerated from the domain, and the
estimate's log follows; the walk's points end both files, so their
coordinates are formatted once, to 17 significant digits, for both.
Every output file is written row by row, without holding its whole text,
through a temporary file that replaces it at the end; a write that
raises leaves no temporary behind.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, contextmanager
from itertools import islice
from pathlib import Path
from typing import TextIO

from .classifier import CANONICAL_SPECS, Classifier, make_test_classifier
from .dcopf import default_network, dispatch, load_network, make_dcopf_classifier
from .errors import (
    BudgetExhaustedError,
    EdgewalkError,
    GeometricFailureError,
    InputError,
    NoBoundaryFoundError,
)
from .grid import run_grid
from .marching import check_cell
from .metrics import asd_to_reference, reference_from_scalar
from .svgplot import render_boundary_svg
from .walk import EdgeConfig, Termination, run_edge


class _Parser(argparse.ArgumentParser):
    # route usage mistakes through the same exit path as other bad input
    def error(self, message):
        raise InputError(message)


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"expected a point as 'x,y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
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


def _scalar_spec(spec: str):
    """Field and threshold behind a built-in classifier, if any."""
    key = spec.replace("-", "_").lower()
    return CANONICAL_SPECS.get(key)


@contextmanager
def _replacing(*paths: Path) -> Iterator[list[TextIO]]:
    """Open a temporary file beside each path; on success each replaces its path.

    The body writes through the yielded handles.  If it raises, the
    temporaries are removed, each path keeps what it held before, and the
    exception goes on: no stray temporary and no half-written file is left.
    """
    tmps = [path.with_name(path.name + ".tmp") for path in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(tmp.open("w")) for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _atomic_write(path: Path, lines: Iterable[str]) -> None:
    """Write lines through a temporary file that then replaces path.

    Lines may be a generator, so a large file's text is never held whole.
    """
    with _replacing(path) as (fh,):
        fh.writelines(lines)


# the same bytes as f"{x:.17g},{y:.17g}", in about three quarters of the time
_XY = "%.17g,%.17g"


def _write_csvs(estimate, domain, points: TextIO, queries: TextIO | None = None) -> None:
    """Write points.csv to points, and queries.csv to queries if given.

    One pass over the estimate of a run over domain.  Both files end in
    the walk's points, so their text is formatted once for both.
    """
    write_point = points.write
    write_point("x,y,label,order\n")
    inner, outer = estimate.pair
    write_point(f"{_XY % inner},1,0\n{_XY % outer},0,1\n")
    before_walk = estimate.total_queries - estimate.walk_queries
    if queries is not None:
        write_query = queries.write
        write_query("order,x,y,label\n")
        log = islice(estimate.query_log(domain), before_walk)
        for order, (q, label) in enumerate(log):
            write_query(f"{order},{_XY % q},{label}\n")
    for k, (p, label) in enumerate(estimate.walk_log()):
        text = _XY % p
        write_point(f"{text},{label},{2 + k}\n")
        if queries is not None:
            write_query(f"{before_walk + k},{text},{label}\n")


def _cmd_run(args) -> None:
    # a bad --reference-cell is refused before the walk spends any query
    if args.reference_cell is not None:
        spec = _scalar_spec(args.classifier)
        if spec is None:
            raise InputError(
                "no scalar reference available for this classifier; "
                "--reference-cell only applies to the built-in level sets"
            )
        check_cell(args.reference_cell)
    classifier = _make_classifier(args.classifier)
    config = _walk_config(args, args.epsilon)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    estimate = run_edge(classifier, config)
    wall = time.perf_counter() - t0

    csvs = [out / "points.csv"]
    if args.log_queries:
        csvs.append(out / "queries.csv")
    with _replacing(*csvs) as handles:
        _write_csvs(estimate, classifier.domain, *handles)
    # the bracket pair plus the walk's points of each label, counted from
    # the labels so that no point is built just to be counted
    walk_start = len(estimate.labels) - estimate.walk_queries
    n_inner = 1 + estimate.labels.count(1, walk_start)
    n_outer = 2 + estimate.walk_queries - n_inner
    report = {
        "classifier": classifier.name,
        "epsilon": args.epsilon,
        "termination": str(estimate.termination.value),
        "total_queries": estimate.total_queries,
        "seed_queries": estimate.seed_queries,
        "bisection_queries": estimate.bisection_queries,
        "walk_queries": estimate.walk_queries,
        "inner_points": n_inner,
        "outer_points": n_outer,
        "wall_seconds": wall,
    }

    polylines = []
    if args.reference_cell is not None:
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
    _atomic_write(out / "report.json", [json.dumps(report, indent=2) + "\n"])
    print(
        f"{classifier.name}: {estimate.termination.value} after "
        f"{estimate.total_queries} queries "
        f"({n_inner} inner, {n_outer} outer) "
        f"-> {out / 'points.csv'}"
    )
    if estimate.termination is Termination.BUDGET_EXHAUSTED:
        raise BudgetExhaustedError(
            f"the query budget of {config.budget_for(classifier.domain)} "
            "ran out before the walk closed"
        )
    if estimate.termination is Termination.FAILED:
        raise GeometricFailureError(estimate.failure)


def _cmd_compare(args) -> None:
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
    # every step size is refused, if bad, before the first one spends a query
    domain = _make_classifier(args.classifier).domain
    for config in configs:
        config.validate_for(domain)
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
            "edge_termination": estimate.termination.value,
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

    with _replacing(out / "table.csv") as (fh,):
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    _atomic_write(out / "report.json", [json.dumps(rows, indent=2) + "\n"])
    print(f"-> {out / 'table.csv'}")
    exhausted = [
        f"{row['epsilon']:g}"
        for row in rows
        if row["edge_termination"] == Termination.BUDGET_EXHAUSTED.value
    ]
    if exhausted:
        raise BudgetExhaustedError(
            "the query budget ran out before the walk closed at "
            f"epsilon {', '.join(exhausted)}"
        )


def _cmd_dispatch(args) -> None:
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
        return
    if not result.feasible:
        print(f"injections ({args.p1:g}, {args.p2:g}): infeasible")
        return
    print(f"injections ({args.p1:g}, {args.p2:g}): feasible, cost {result.cost:.4f}")
    for g, p in result.generation:
        print(f"  gen at bus {g.bus}: {p:.4f} / {g.capacity:g}")
    for ln, f in result.flows:
        lim = "inf" if ln.limit == float("inf") else f"{ln.limit:g}"
        print(f"  line {ln.from_bus}-{ln.to_bus}: {f:+.4f} / {lim}")


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


# the exit code of each error class, the first match winning; any other
# package error, and an output that cannot be written, exits 1
_EXIT_CODES = (
    (NoBoundaryFoundError, 2),
    (BudgetExhaustedError, 3),
    (InputError, 4),
    (GeometricFailureError, 5),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except (EdgewalkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), 1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
