"""End-to-end behavior of the command line front end."""

import csv
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk import cli
from edgewalk.classifier import Classifier, make_classifier
from edgewalk.cli import main
from edgewalk.geometry import Domain, Point2
from edgewalk.walk import BoundaryEstimate, Termination

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
        assert report["inner_points"] + report["outer_points"] == len(rows)
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

    def test_reference_cell_refused_for_network_classifier(self, tmp_path):
        rc = main(
            [
                "run",
                "dcopf",
                "--epsilon",
                "0.5",
                "--out",
                str(tmp_path / "o"),
                "--reference-cell",
                "0.05",
            ]
        )
        assert rc == 4

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

    def test_budget_death_reports_partial_estimate(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "run",
                "rosenbrock",
                "--epsilon",
                "0.1",
                "--max-queries",
                "40",
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] == "budget_exhausted"
        assert report["total_queries"] == 40
        assert (out / "points.csv").exists()

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
        report = json.loads((out / "report.json").read_text())
        assert len(report) == 2

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


def seed_points_csv(estimate) -> str:
    """points.csv as first written, one f-string per row: the oracle."""
    lines = ["x,y,label,order"]
    for order, (p, label) in enumerate(estimate.points_in_order()):
        lines.append(f"{p.x:.17g},{p.y:.17g},{label},{order}")
    return "\n".join(lines) + "\n"


def seed_queries_csv(log) -> str:
    """queries.csv as first written, one f-string per row: the oracle."""
    lines = ["order,x,y,label"]
    for order, (p, label) in enumerate(log):
        lines.append(f"{order},{p.x:.17g},{p.y:.17g},{label}")
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


@st.composite
def logs_and_estimates(draw):
    """A query log and an estimate over it.

    The log may query one point object twice.  The estimate holds logged
    point objects and fresh ones, including equal-valued copies and points
    that differ from a logged one only in the sign of a zero.
    """
    pool = draw(st.lists(points, min_size=1, max_size=12))
    log = [
        (pool[i], draw(st.sampled_from([0, 1])))
        for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    ]
    picked = []
    for choice in draw(st.lists(st.integers(0, 3), max_size=30)):
        if choice < 2 and log:
            picked.append(log[draw(st.integers(0, len(log) - 1))])
            if choice == 1:
                p, label = picked[-1]
                picked[-1] = (Point2(-p.x if p.x == 0.0 else p.x, p.y), label)
        elif choice == 2 and log:
            p, label = log[draw(st.integers(0, len(log) - 1))]
            picked.append((Point2(*p), label))
        else:
            picked.append((draw(points), draw(st.sampled_from([0, 1]))))
    estimate = BoundaryEstimate(
        inner=[p for p, label in picked if label == 1],
        outer=[p for p, label in picked if label == 0],
        labels_order=[label for _, label in picked],
        epsilon=0.1,
        termination=Termination.CLOSED_LOOP,
        total_queries=len(log),
        seed_queries=0,
        bisection_queries=0,
        walk_queries=len(log),
        failure=None,
    )
    return log, estimate


class TestCsvWriters:
    @settings(max_examples=400, deadline=None)
    @given(logs_and_estimates())
    def test_writers_match_seed_f_strings(self, drawn):
        log, estimate = drawn
        texts = cli._xy_texts(log)
        assert "".join(cli._queries_rows(log, texts)) == seed_queries_csv(log)
        assert "".join(cli._points_rows(estimate, texts)) == seed_points_csv(estimate)
        assert cli._points_csv(estimate) == seed_points_csv(estimate)

    def test_signed_zero_keeps_its_own_text(self):
        logged = Point2(0.0, 1.0)
        log = [(logged, 1), (Point2(2.0, 3.0), 0), (logged, 1)]
        estimate = BoundaryEstimate(
            inner=[logged, Point2(-0.0, 1.0)],
            outer=[log[1][0]],
            labels_order=[1, 0, 1],
            epsilon=0.1,
            termination=Termination.CLOSED_LOOP,
            total_queries=3,
            seed_queries=0,
            bisection_queries=0,
            walk_queries=3,
            failure=None,
        )
        text = "".join(cli._points_rows(estimate, cli._xy_texts(log)))
        assert text == "x,y,label,order\n0,1,1,0\n2,3,0,1\n-0,1,1,2\n"
        assert text == seed_points_csv(estimate)
