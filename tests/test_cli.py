"""End-to-end behavior of the command line front end."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from array import array
from itertools import chain, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk import cli
from edgewalk.classifier import Classifier, make_classifier
from edgewalk.errors import (
    CoincidentCentersError,
    EmptyContourError,
    FullPerimeterError,
    ReferenceResolutionError,
    SolverError,
)
from edgewalk.cli import main
from edgewalk.geometry import Domain, Point2
from edgewalk.walk import BoundaryEstimate, Termination, seed_scan

# two buses, ample generation, no line limits: every injection pair balances
ALL_FEASIBLE_NET = """
[buses]
1
2

[generators]
1  5.0  20.0

[lines]
1  2  0.1  inf

[loads]
2  10.0

[renewable_slots]
1  2.0
2  3.0
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def rim_interior(monkeypatch):
    """Serve every classifier name as y < 0.5 on the unit square, rim interior.

    Its walk meets the rim and steps all the way round it, a geometric
    failure mid-walk.
    """

    def fn(x, y):
        on_rim = x <= 0.0 or x >= 1.0 or y <= 0.0 or y >= 1.0
        return -1.0 if on_rim else y

    def build(spec):
        return make_classifier(fn, 0.5, Domain(0.0, 1.0, 0.0, 1.0), spec)

    monkeypatch.setattr(cli, "_make_classifier", build)
    return ["--seed-in", "0.5,0.25", "--seed-out", "0.5,0.75"]


class TestRun:
    def test_writes_points_and_report(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "rosenbrock", "--epsilon", "0.2", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "points.csv")
        assert {r["label"] for r in rows} == {"0", "1"}
        assert [int(r["order"]) for r in rows] == list(range(len(rows)))
        report = json.loads((out / "report.json").read_text())
        assert report["classifier"] == "rosenbrock"
        assert report["termination"] == "closed_loop"
        assert report["inner_points"] == sum(r["label"] == "1" for r in rows)
        assert report["outer_points"] == sum(r["label"] == "0" for r in rows)
        assert report["total_queries"] >= len(rows)
        assert report["wall_seconds"] > 0.0

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "beale", "--epsilon", "0.25", "--out", str(a)]) == 0
        assert main(["run", "beale", "--epsilon", "0.25", "--out", str(b)]) == 0
        assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()

    def test_query_log_leaves_points_csv_unchanged(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "beale", "--epsilon", "0.1", "--out", str(a)]) == 0
        argv = ["run", "beale", "--epsilon", "0.1", "--log-queries", "--out", str(b)]
        assert main(argv) == 0
        assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()

    def test_queries_csv_lists_every_query_in_order(self, tmp_path, monkeypatch):
        recorded = []

        def label_fn(p):
            label = 1 if p[0] ** 2 + p[1] ** 2 < 0.25 else 0
            recorded.append((p[0], p[1], label))
            return label

        def build(spec):
            return Classifier(label_fn, Domain(-1.0, 1.0, -1.0, 1.0), spec)

        monkeypatch.setattr(cli, "_make_classifier", build)
        out = tmp_path / "log"
        argv = ["run", "disc", "--epsilon", "0.1", "--log-queries", "--out", str(out)]
        assert main(argv) == 0
        rows = read_csv(out / "queries.csv")
        assert [int(r["order"]) for r in rows] == list(range(len(recorded)))
        assert [(float(r["x"]), float(r["y"]), int(r["label"])) for r in rows] == recorded
        report = json.loads((out / "report.json").read_text())
        assert report["total_queries"] == len(recorded)

        recorded.clear()
        bare = tmp_path / "bare"
        assert main(["run", "disc", "--epsilon", "0.1", "--out", str(bare)]) == 0
        assert len(recorded) == len(rows)
        assert not (bare / "queries.csv").exists()

    def test_plot_and_query_log(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "run",
                "rosenbrock",
                "--epsilon",
                "0.25",
                "--out",
                str(out),
                "--plot",
                "--log-queries",
            ]
        )
        assert rc == 0
        svg = (out / "plot.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg
        report = json.loads((out / "report.json").read_text())
        queries = read_csv(out / "queries.csv")
        assert len(queries) == report["total_queries"]

    def test_reference_cell_adds_distance_score(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "run",
                "rosenbrock",
                "--epsilon",
                "0.2",
                "--out",
                str(out),
                "--reference-cell",
                "0.02",
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["asd"] == pytest.approx(
            report["asd_inner"] + report["asd_outer"]
        )
        assert 0.0 < report["asd"] < 3.0 * 0.2

    @staticmethod
    def _assert_refused_before_walking(tmp_path, monkeypatch, record_queries, argv):
        # exit 4 with no file written and no oracle query spent
        log = record_queries()
        build = cli._make_classifier

        def spy(spec):
            c = build(spec)
            log.watch(c)
            return c

        monkeypatch.setattr(cli, "_make_classifier", spy)
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 4
        assert log == []
        assert not out.exists() or list(out.iterdir()) == []

    def test_reference_cell_refused_for_network_classifier(
        self, tmp_path, monkeypatch, record_queries
    ):
        self._assert_refused_before_walking(
            tmp_path,
            monkeypatch,
            record_queries,
            [
                "run",
                "dcopf",
                "--epsilon",
                "0.05",
                "--seed-in",
                "0.4,4.74",
                "--seed-out",
                "10,7",
                "--reference-cell",
                "0.01",
            ],
        )

    @pytest.mark.parametrize("cell", ["-1", "0", "nan", "inf"])
    def test_bad_reference_cell_refused_before_walking(
        self, tmp_path, monkeypatch, record_queries, cell
    ):
        self._assert_refused_before_walking(
            tmp_path,
            monkeypatch,
            record_queries,
            ["run", "rosenbrock", "--epsilon", "0.05", f"--reference-cell={cell}"],
        )

    def test_explicit_seeds(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "run",
                "rosenbrock",
                "--epsilon",
                "0.2",
                "--seed-in=1,1",
                "--seed-out=-6,-2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0

    def test_unknown_classifier_is_input_error(self, tmp_path):
        rc = main(["run", "nosuch", "--epsilon", "0.1", "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_single_seed_is_input_error(self, tmp_path):
        rc = main(
            [
                "run",
                "rosenbrock",
                "--epsilon",
                "0.1",
                "--seed-in",
                "0,4",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 4

    def test_seed_outside_domain_is_input_error(self, tmp_path):
        rc = main(
            [
                "run",
                "rosenbrock",
                "--epsilon",
                "0.1",
                "--seed-in",
                "99,99",
                "--seed-out",
                "-6,-2",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 4

    def test_seeds_within_geometric_tolerance_are_input_error(self, tmp_path, capsys):
        # 1e-9 apart on rosenbrock's domain, whose tolerance is about 1.7e-8
        out = tmp_path / "o"
        rc = main(
            [
                "run",
                "rosenbrock",
                "--epsilon",
                "0.1",
                "--seed-in",
                "1,1",
                "--seed-out",
                "1,1.000000001",
                "--out",
                str(out),
            ]
        )
        assert rc == 4
        assert "geometric tolerance" in capsys.readouterr().err
        assert not (out / "points.csv").exists()

    def test_malformed_point_is_input_error(self, tmp_path):
        rc = main(
            [
                "run",
                "rosenbrock",
                "--epsilon",
                "0.1",
                "--seed-in",
                "zero;four",
                "--seed-out",
                "-6,-2",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 4

    @pytest.mark.parametrize("log", [[], ["--log-queries"]], ids=["bare", "logged"])
    def test_budget_death_reports_partial_estimate(self, tmp_path, capsys, log):
        # a 200-query walk at 0.05 stops far short of closing round rosenbrock
        out = tmp_path / "o"
        argv = ["run", "rosenbrock", "--epsilon", "0.05", "--max-queries", "200"]
        assert main([*argv, *log, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "query budget of 200" in err
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] == "budget_exhausted"
        assert report["total_queries"] == 200
        rows = read_csv(out / "points.csv")
        assert len(rows) == report["inner_points"] + report["outer_points"]
        if log:
            assert len(read_csv(out / "queries.csv")) == 200
        else:
            assert not (out / "queries.csv").exists()

    def test_geometric_failure_reports_partial_estimate(
        self, tmp_path, rim_interior, capsys
    ):
        out = tmp_path / "o"
        argv = ["run", "rim", "--epsilon", "0.05", *rim_interior, "--out", str(out)]
        assert main(argv) == 5
        assert "full domain boundary" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] == "failed"
        rows = read_csv(out / "points.csv")
        assert len(rows) == report["inner_points"] + report["outer_points"] > 80

    def test_boundaryless_domain_exit_code(self, tmp_path):
        net = tmp_path / "flat.txt"
        net.write_text(ALL_FEASIBLE_NET)
        rc = main(
            [
                "run",
                f"dcopf:{net}",
                "--epsilon",
                "0.1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2

    def test_missing_subcommand_is_input_error(self):
        assert main([]) == 4


class TestCompare:
    def test_table_rows_and_query_advantage(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            ["compare", "beale", "--epsilons", "0.3,0.2", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "table.csv")
        assert [float(r["epsilon"]) for r in rows] == [0.3, 0.2]
        for r in rows:
            assert int(r["edge_queries"]) < int(r["grid_queries"])
            assert float(r["edge_wall_seconds"]) > 0.0
            assert float(r["grid_wall_seconds"]) > 0.0
            assert 0.0 < float(r["edge_asd"]) < 1.0
            assert r["edge_termination"] == "closed_loop"
        report = json.loads((out / "report.json").read_text())
        assert len(report) == 2

    def test_walk_out_of_budget_writes_the_table_and_exits_3(self, tmp_path, capsys):
        # a 200-query walk at 0.05 stops far short of closing round
        # rosenbrock; its row says so, and the exit code does too
        out = tmp_path / "o"
        argv = ["compare", "rosenbrock", "--epsilons", "0.05", "--max-queries", "200"]
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        (row,) = read_csv(out / "table.csv")
        assert row["edge_termination"] == "budget_exhausted"
        assert int(row["edge_queries"]) == 200
        (entry,) = json.loads((out / "report.json").read_text())
        assert entry["edge_termination"] == "budget_exhausted"
        assert entry["grid_queries"] == int(row["grid_queries"]) > 0

    def test_network_classifier_rows_skip_distance_score(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "compare",
                "dcopf",
                "--epsilons",
                "0.5",
                "--seed-in",
                "0.4,4.74",
                "--seed-out",
                "10,7",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out / "table.csv")
        assert rows[0]["edge_asd"] == "" and rows[0]["grid_asd"] == ""

    def test_geometric_failure_exit_code(self, tmp_path, rim_interior, capsys):
        out = tmp_path / "o"
        argv = ["compare", "rim", "--epsilons", "0.05", *rim_interior, "--out", str(out)]
        assert main(argv) == 5
        assert "full domain boundary" in capsys.readouterr().err
        assert not (out / "table.csv").exists()

    def test_empty_epsilons_rejected(self, tmp_path):
        rc = main(
            ["compare", "beale", "--epsilons", ",", "--out", str(tmp_path / "o")]
        )
        assert rc == 4

    @pytest.mark.parametrize("bad", ["0", "-0.1", "nan", "12"])
    def test_bad_epsilon_refused_before_any_query(self, tmp_path, capsys, bad):
        # the good step size comes first: it used to be walked and gridded,
        # 366,075 queries, before the bad one was refused
        out = tmp_path / "o"
        argv = ["compare", "rosenbrock", "--epsilons", f"0.02,{bad}", "--out", str(out)]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (out / "table.csv").exists()


class TestDispatch:
    def test_feasible_json(self, capsys):
        rc = main(["dispatch", "0.4", "4.74", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"]
        assert payload["cost"] == pytest.approx(150.0434, abs=1e-3)
        assert len(payload["generation"]) == 3
        assert len(payload["flows"]) == 6

    def test_infeasible_json(self, capsys):
        rc = main(["dispatch", "10", "7", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"feasible": False}

    def test_human_readable(self, capsys):
        rc = main(["dispatch", "0.4", "4.74"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "feasible" in text and "line 1-2" in text

    def test_custom_network_file(self, tmp_path, capsys):
        net = tmp_path / "flat.txt"
        net.write_text(ALL_FEASIBLE_NET)
        rc = main(["dispatch", "1.0", "1.0", "--network", str(net), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"]


def test_module_entry_point(tmp_path):
    out = tmp_path / "o"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "edgewalk",
            "run",
            "rosenbrock",
            "--epsilon",
            "0.3",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "points.csv").exists()
    assert "closed_loop" in proc.stdout


# --- CSV writers --------------------------------------------------------------


def seed_points_csv(kept) -> str:
    """points.csv as first written, one f-string per row: the oracle.

    kept is the bracket pair, then the walk's points, as (point, label).
    """
    lines = ["x,y,label,order"]
    for order, (p, label) in enumerate(kept):
        lines.append(f"{p[0]:.17g},{p[1]:.17g},{label},{order}")
    return "\n".join(lines) + "\n"


def seed_queries_csv(log) -> str:
    """queries.csv as first written, one f-string per row: the oracle."""
    lines = ["order,x,y,label"]
    for order, (p, label) in enumerate(log):
        lines.append(f"{order},{p[0]:.17g},{p[1]:.17g},{label}")
    return "\n".join(lines) + "\n"


def _nudged(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# signed zeros, subnormals, extremes, integral values, and values on either
# side of where %.17g switches to exponent form (exponent -5 and 17)
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e300, -1e300, 1e-300, -1e-300, 1.0, -3.0, 2.0**53, 0.1,
    *_nudged(1e16), *_nudged(1e17), *_nudged(1e-5), *_nudged(1e-4),
]
coords = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)
)
points = st.builds(Point2, coords, coords)
# domains whose scan points take the same special values
DOMAINS = [
    Domain(-1.0, 1.0, -1.0, 1.0),
    Domain(1e16, 1e17, -1e-5, 1e-4),
    Domain(-1e300, 1e300, 0.0, 5e-324),
]
SQUARE = DOMAINS[0]


def make_estimate(pair, before_walk, walk, scan_label=None, n_scan=0, epsilon=0.1):
    """An estimate whose scan made n_scan probes and whose log is the rest.

    before_walk (the explicit seeds, at least two, when scan_label is
    None, and the bisection) and walk are (point, label) lists.
    """
    log = before_walk + walk
    seed_queries = 2 if scan_label is None else n_scan
    return BoundaryEstimate(
        xy=array("d", chain.from_iterable(p for p, _ in log)),
        labels=bytearray(label for _, label in log),
        pair=tuple(pair),
        scan_label=scan_label,
        epsilon=epsilon,
        termination=Termination.CLOSED_LOOP,
        total_queries=n_scan + len(log),
        seed_queries=seed_queries,
        bisection_queries=n_scan + len(before_walk) - seed_queries,
        walk_queries=len(walk),
        failure=None,
    )


@st.composite
def estimates(draw):
    """(estimate, domain, its queries, its kept points), as run_edge returns one.

    The scan, when there is one, is the start of `seed_scan` over a drawn
    domain, its last probe labelled apart.  The logged queries may repeat
    a point object, and the bracket pair is two of the queries, or now
    and then a point never queried.  The walk's points may repeat a
    logged object or value, signed zeros, subnormals and the exponent
    edges of %.17g included.
    """
    domain = draw(st.sampled_from(DOMAINS))
    epsilon = max(domain.width, domain.height) / 1024
    labels = st.sampled_from([0, 1])
    scan_label = draw(st.one_of(st.none(), labels))
    scan = []
    if scan_label is not None:
        probes = list(islice(seed_scan(domain, epsilon), draw(st.integers(2, 40))))
        scan = [(p, scan_label) for p in probes[:-1]] + [(probes[-1], 1 - scan_label)]
    pool = draw(st.lists(points, min_size=1, max_size=12))
    pool_index = st.integers(0, len(pool) - 1)
    picks = draw(st.lists(pool_index, min_size=2 if scan_label is None else 0, max_size=20))
    before_walk = [(pool[i], draw(labels)) for i in picks]
    queried = [p for p, _ in scan + before_walk]
    pair = [draw(st.one_of(points, st.sampled_from(queried))) for _ in range(2)]
    walk = [
        (draw(st.one_of(points, st.sampled_from(pool))), draw(labels))
        for _ in range(draw(st.integers(0, 30)))
    ]
    estimate = make_estimate(pair, before_walk, walk, scan_label, len(scan), epsilon)
    kept = [(pair[0], 1), (pair[1], 0), *walk]
    return estimate, domain, scan + before_walk + walk, kept


def render(estimate, domain, log_queries):
    """The points.csv text, and the queries.csv text or None, for estimate."""
    handles = [io.StringIO() for _ in range(1 + log_queries)]
    cli._write_csvs(estimate, domain, *handles)
    texts = [fh.getvalue() for fh in handles]
    return texts[0], texts[1] if log_queries else None


def clipped_disc():
    """A disc of radius 0.6 centred on the right side: its walk steps the rim."""
    return make_classifier(
        lambda x, y: (x - 1.0) ** 2 + y * y,
        0.36,
        Domain(-1.0, 1.0, -1.0, 1.0),
        "clipped-disc",
    )


LOGGED_RUNS = {
    "seed-scan": (["rosenbrock", "--epsilon", "0.2"], 0),
    "explicit-seeds": (
        ["rosenbrock", "--epsilon", "0.2", "--seed-in=1,1", "--seed-out=-6,-2"],
        0,
    ),
    "clipped-disc": (["disc", "--epsilon", "0.1"], 0),
    "max-queries": (["rosenbrock", "--epsilon", "0.1", "--max-queries", "40"], 3),
    # the 34th query would be a rim step of the clipped disc
    "budget-death-on-the-rim": (["disc", "--epsilon", "0.1", "--max-queries", "33"], 3),
    "geometric-failure": (["rim", "--epsilon", "0.05"], 5),
}


class TestCsvWriters:
    @settings(max_examples=400, deadline=None)
    @given(estimates())
    def test_writers_match_seed_f_strings(self, drawn):
        estimate, domain, queries, kept = drawn
        points_text, queries_text = render(estimate, domain, log_queries=True)
        assert queries_text == seed_queries_csv(queries)
        assert points_text == seed_points_csv(kept)
        assert render(estimate, domain, log_queries=False) == (points_text, None)

    def test_signed_zero_keeps_its_own_text(self):
        zero, other = Point2(0.0, 1.0), Point2(2.0, 3.0)
        seeds = [(zero, 1), (other, 0)]
        estimate = make_estimate((zero, other), seeds, [(Point2(-0.0, 1.0), 1)])
        points_text, queries_text = render(estimate, SQUARE, log_queries=True)
        assert points_text == "x,y,label,order\n0,1,1,0\n2,3,0,1\n-0,1,1,2\n"
        assert queries_text == "order,x,y,label\n0,0,1,1\n1,2,3,0\n2,-0,1,1\n"

    @pytest.mark.parametrize("case", LOGGED_RUNS)
    def test_logged_runs_match_seed_f_strings(
        self, request, tmp_path, monkeypatch, record_queries, bits, case
    ):
        argv, code = LOGGED_RUNS[case]
        if argv[0] == "disc":
            monkeypatch.setattr(cli, "_make_classifier", lambda spec: clipped_disc())
        elif case == "geometric-failure":
            argv = argv + request.getfixturevalue("rim_interior")
        build, run_edge = cli._make_classifier, cli.run_edge
        log, classifiers, estimates = record_queries(), [], []

        def spy(spec):
            c = build(spec)
            log.watch(c)
            classifiers.append(c)
            return c

        def run_edge_kept(c, config):
            estimates.append(run_edge(c, config))
            return estimates[-1]

        monkeypatch.setattr(cli, "_make_classifier", spy)
        monkeypatch.setattr(cli, "run_edge", run_edge_kept)
        out = tmp_path / "o"
        assert main(["run", *argv, "--log-queries", "--out", str(out)]) == code
        (estimate,), (c,) = estimates, classifiers
        assert estimate.walk_queries > 0
        assert len(log) == estimate.total_queries
        # the scan regenerates, and the packed log gives back every later
        # query: each point and label, bit for bit
        assert bits(estimate.query_log(c.domain)) == bits(log)
        n_scan = 0 if estimate.scan_label is None else estimate.seed_queries
        assert len(estimate.xy) == 2 * (len(log) - n_scan)
        if case == "clipped-disc":
            assert any(p.x == 1.0 for p in estimate.inner)
        elif case == "budget-death-on-the-rim":
            assert estimate.total_queries == 33
            assert bits([(estimate.inner[-1], 1)]) == bits(log[-1:])
            assert log[-1][0][0] == 1.0
        inner, outer = estimate.pair
        walk = log[len(log) - estimate.walk_queries :]
        assert (out / "queries.csv").read_text() == seed_queries_csv(log)
        assert (out / "points.csv").read_text() == seed_points_csv(
            [(inner, 1), (outer, 0), *walk]
        )


class TestFailedWrites:
    """A write that fails leaves no temporary and no half-written file.

    run reports it in one error line on stderr and exits 1.
    """

    @staticmethod
    def _failing_writer(monkeypatch):
        # every file gets a line, then the disk fills
        def write_csvs(estimate, domain, *handles):
            for fh in handles:
                fh.write("x,y,label,order\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_csvs", write_csvs)

    @pytest.mark.parametrize("log", [[], ["--log-queries"]], ids=["bare", "logged"])
    def test_writer_raising_leaves_nothing(self, tmp_path, monkeypatch, capsys, log):
        self._failing_writer(monkeypatch)
        out = tmp_path / "o"
        argv = ["run", "rosenbrock", "--epsilon", "0.2", *log, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(out.iterdir()) == []

    def test_out_under_a_file_is_one_error_line(self, tmp_path, capsys):
        blocker = tmp_path / "report.json"
        blocker.write_text("{}")
        out = blocker / "x"
        assert main(["run", "rosenbrock", "--epsilon", "0.2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err
        assert blocker.read_text() == "{}"

    def test_failed_write_leaves_earlier_files_as_they_were(
        self, tmp_path, monkeypatch
    ):
        self._failing_writer(monkeypatch)
        for name in ("points.csv", "queries.csv"):
            (tmp_path / name).write_text("earlier\n")
        argv = ["run", "rosenbrock", "--epsilon", "0.2", "--log-queries"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert sorted(os.listdir(tmp_path)) == ["points.csv", "queries.csv"]
        for name in ("points.csv", "queries.csv"):
            assert (tmp_path / name).read_text() == "earlier\n"


@pytest.mark.parametrize(
    "error, code",
    [
        (ReferenceResolutionError("reference too coarse"), 4),
        (CoincidentCentersError("centers coincide"), 5),
        (FullPerimeterError("went round the full domain boundary"), 5),
        (EmptyContourError("no contour in the domain"), 1),
        (SolverError("no convergence"), 1),
        (OSError("disk full"), 1),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_each_error_class_exits_with_its_code(
    tmp_path, monkeypatch, capsys, error, code
):
    """main maps an error a subcommand raises to its code and one error line."""

    def raising(classifier, config):
        raise error

    monkeypatch.setattr(cli, "run_edge", raising)
    argv = ["run", "rosenbrock", "--epsilon", "0.2", "--out", str(tmp_path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_logged_run_stays_under_48_bytes_per_query(tmp_path):
    """Memory guard: the query log and its writer add little beyond the estimate.

    The run logs each query into the estimate's packed array, 17 bytes a
    query, and the whole run peaks at about 26; a tuple per query, kept
    by the run or by the writer, shows as over 100.
    """
    argv = ["run", "rosenbrock", "--epsilon", "0.01", "--log-queries"]
    argv += ["--out", str(tmp_path)]
    assert main(argv) == 0  # warm-up: imports and caches are not the run's
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    queries = json.loads((tmp_path / "report.json").read_text())["total_queries"]
    assert peak / queries < 48
