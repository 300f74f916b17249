"""Tests for the benchmark's own code; they run in seconds.

    python3 -m pytest bench -q
"""

import json
import math
import time

import pytest

import run
import tracing
import worker
import workloads as wl

wl.import_edgewalk()


def test_self_time_on_synthetic_span_tree():
    tr = tracing.Tracer()
    tr.begin_pass()
    root = tr.record("pass", 0.0, 10.0)
    main = tr.record("cli.main", 1.0, 9.0, root)
    tr.side = tracing.SIDE_WALK
    walk = tr.record("walk.run_edge", 2.0, 6.0, main)
    tr.record("classifier.query", 3.0, 4.0, walk)
    tr.record("geometry.circle_circle_intersection", 4.5, 5.0, walk)
    tr.side = tracing.SIDE_GRID
    grid = tr.record("grid.run_grid", 6.5, 8.5, main)
    tr.record("classifier.query", 7.0, 8.0, grid)
    tr.side = tracing.SIDE_NONE
    tr.end_pass()

    a = tr.pass_arrays(0)
    selfs = tracing.self_times(a["parent"], a["start"], a["end"])
    assert selfs.tolist() == pytest.approx([2.0, 2.0, 2.5, 1.0, 0.5, 1.0, 1.0])

    m = tracing.pass_metrics(tr, 0)
    assert m["cli.busy_s"] == pytest.approx(8.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    # walk overhead keeps its geometry calls, drops only the oracle
    assert m["walk.self_s"] == pytest.approx(3.0)
    assert m["walk.self_us_per_query"] == pytest.approx(3.0e6)
    assert m["grid.self_s"] == pytest.approx(1.0)
    assert m["grid.queries"] == 1
    assert m["classifier.queries"] == 2
    assert m["geometry.busy_s"] == pytest.approx(0.5)
    assert m["trace.wall_s"] == pytest.approx(10.0)
    assert m["trace.unattributed_s"] == pytest.approx(2.0)
    assert m["trace.self_sum_s"] + m["trace.unattributed_s"] == pytest.approx(10.0)


def test_wrappers_count_calls_and_are_removed_afterwards():
    from edgewalk import Domain, EdgeConfig, make_classifier, walk

    original = walk.circle_circle_intersection
    circle = make_classifier(lambda x, y: x * x + y * y, 1.0, Domain(-2, 2, -2, 2))
    tr = tracing.Tracer()
    with tracing.installed(tr), tr.run_pass():
        est = walk.run_edge(circle, EdgeConfig(epsilon=0.1))
    assert walk.circle_circle_intersection is original

    m = tracing.pass_metrics(tr, 0)
    assert m["classifier.queries"] == est.total_queries
    assert m["walk.queries.walk"] == est.walk_queries
    assert m["geometry.circle_calls"] > 0
    assert 0.0 < m["walk.busy_s"] <= m["trace.wall_s"]
    assert m["trace.self_sum_s"] <= m["trace.wall_s"]


def test_shapes_are_deterministic_per_seed():
    shapes = wl.generate_shapes(7)
    assert shapes == wl.generate_shapes(7)
    assert shapes != wl.generate_shapes(8)
    kinds = [s[0] for s in shapes]
    assert kinds.count("halfplane") == wl.N_HALFPLANES
    assert kinds.count("ellipse") == wl.N_ELLIPSES

    from edgewalk import EdgeConfig, walk

    config = EdgeConfig(epsilon=wl.SHAPE_EPSILON)
    sample = wl.build_classifiers(wl.SHAPES, 7)[::60]
    first = [wl.run_shape(walk, config, c)[0] for c in sample]
    again = [wl.run_shape(walk, config, c)[0] for c in sample]
    assert first == again
    assert all(o[1] > 0 for o in first)


def test_shape_check_catches_a_mislabelled_point():
    from edgewalk import Domain, EdgeConfig, Point2, make_classifier, walk

    shape = ("halfplane", 1.0, 0.0, 0.25)
    c = make_classifier(*wl.shape_field(shape), Domain(-1.0, 1.0, -1.0, 1.0))
    outcome, est = wl.run_shape(walk, EdgeConfig(epsilon=0.1), c)
    assert wl.check_shape(shape, outcome, est) == []
    est.inner.append(Point2(0.9, 0.0))
    assert wl.check_shape(shape, outcome, est)


def test_changed_points_csv_trips_the_output_check(tmp_path, monkeypatch):
    from edgewalk import cli

    monkeypatch.setattr(wl, "OUT", tmp_path)
    op = wl.CliOp("rosenbrock", "run", ("run", "rosenbrock", "--epsilon", "0.2", "--log-queries"))
    assert wl.call_cli(cli.main, "unit", op) == 0
    expected = {op.name: wl.observe("unit", op, 0)}
    assert expected[op.name]["termination"] == "closed_loop"
    assert wl.compare_outputs({op.name: wl.observe("unit", op, 0)}, expected) == []

    points = wl.op_dir("unit", op) / "points.csv"
    points.write_text(points.read_text().replace("0", "1", 1))
    problems = wl.compare_outputs({op.name: wl.observe("unit", op, 0)}, expected)
    assert [p.split(":")[0] for p in problems] == ["rosenbrock.points_sha256"]


def test_budget_exhausted_walks_are_counted_apart_from_failures():
    assert not wl.shape_failed(("closed_loop", 40, 5, 10, 25))
    assert not wl.shape_failed(("budget_exhausted", 2667, 5, 10, 2652))
    assert wl.shape_failed(("failed", 300, 5, 10, 285))
    assert wl.shape_failed(("NoBoundaryFoundError", 5, 0, 0, 0))


def test_pass_time_is_counted_in_reference_loops():
    # a 10 s pass holding four 0.5 s samples is 8 s of work, 16 loops
    assert worker.in_reference_loops(10.0, [0.5] * 4) == pytest.approx(16.0)
    # the same pass on a host running at half speed reads the same
    assert worker.in_reference_loops(20.0, [1.0] * 4) == pytest.approx(16.0)


def test_sampler_times_the_loop_while_a_pass_runs():
    with worker.SpeedSampler() as sampler:
        t_end = time.perf_counter() + 5.5 * worker.SAMPLE_INTERVAL_S
        while time.perf_counter() < t_end:
            pass
    assert len(sampler.samples) >= 4
    assert all(t > 0.0 for t in sampler.samples)


def test_asd_is_compared_to_1e_12():
    expected = {"op": {"edge_asd": 0.05, "edge_queries": 10}}
    close = {"op": {"edge_asd": 0.05 + 1e-13, "edge_queries": 10}}
    far = {"op": {"edge_asd": 0.05 + 1e-11, "edge_queries": 10}}
    assert wl.compare_outputs(close, expected) == []
    assert len(wl.compare_outputs(far, expected)) == 1
    assert wl.compare_outputs({}, expected) == ["op: no output"]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(v) for v in range(19)]) is None
    label, value = run.tail_percentile([float(v) for v in range(20)])
    assert (label, value) == ("p50", 9.0)
    label, value = run.tail_percentile([float(v) for v in range(1000)])
    assert label == "p99" and math.isclose(value, 989.0)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.GATED
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
