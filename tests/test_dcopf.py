"""Network parsing, the bounded simplex, and grid-feasibility labeling."""

import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from edgewalk.dcopf import (
    build_feasibility_lp,
    default_network,
    dispatch,
    load_network,
    lp_feasible,
    make_dcopf_classifier,
    parse_network,
)
from edgewalk.errors import InputError
from edgewalk.geometry import Point2
from edgewalk.simplex import solve_bounded_lp
from edgewalk.walk import EdgeConfig, Termination, run_edge


def net_text(
    buses="1\n2\n3",
    gens="1  5.0  4.0",
    lines="1  2  0.1  inf\n2  3  0.2  3.0",
    loads="3  2.0",
    slots="2  6.0\n3  4.0",
):
    return (
        "[buses]\n" + buses + "\n"
        "[generators]\n" + gens + "\n"
        "[lines]\n" + lines + "\n"
        "[loads]\n" + loads + "\n"
        "[renewable_slots]\n" + slots + "\n"
    )


class TestSimplex:
    def test_box_constrained_optimum(self):
        res = solve_bounded_lp([-1.0, 0.0], [[1.0, 1.0]], [5.0], [0.0, 0.0], [3.0, 5.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-3.0, abs=1e-9)
        assert res.x == pytest.approx([3.0, 2.0], abs=1e-9)

    def test_minimization_toward_lower_bounds(self):
        res = solve_bounded_lp([1.0, 1.0], [[1.0, 1.0]], [5.0], [0.0, 0.0], [3.0, 5.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(5.0, abs=1e-9)

    def test_negative_lower_bound(self):
        res = solve_bounded_lp([1.0], [[1.0]], [-2.0], [-5.0], [5.0])
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(-2.0, abs=1e-9)

    def test_infeasible_row(self):
        res = solve_bounded_lp([0.0], [[1.0]], [2.0], [0.0], [1.0])
        assert res.status == "infeasible"

    def test_unbounded_ray(self):
        res = solve_bounded_lp(
            [-1.0, 0.0], [[1.0, -1.0]], [0.0], [0.0, 0.0], [np.inf, np.inf]
        )
        assert res.status == "unbounded"

    def test_fixed_column_does_not_stall(self):
        # a variable pinned to a single value must never be chosen to pivot
        res = solve_bounded_lp(
            [1.0, 0.0], [[1.0, 1.0]], [3.0], [0.0, 1.0], [5.0, 1.0]
        )
        assert res.status == "optimal"
        assert res.x == pytest.approx([2.0, 1.0], abs=1e-9)

    def test_rejects_nonfinite_rows(self):
        with pytest.raises(InputError):
            solve_bounded_lp([0.0], [[np.nan]], [1.0], [0.0], [1.0])
        with pytest.raises(InputError):
            solve_bounded_lp([0.0], [[1.0]], [np.inf], [0.0], [1.0])

    def test_rejects_crossed_or_open_bounds(self):
        with pytest.raises(InputError):
            solve_bounded_lp([0.0], [[1.0]], [0.5], [2.0], [1.0])
        with pytest.raises(InputError):
            solve_bounded_lp([0.0], [[1.0]], [0.5], [-np.inf], [1.0])
        with pytest.raises(InputError):
            solve_bounded_lp([0.0], [[1.0]], [0.5], [0.0], [np.nan])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(InputError):
            solve_bounded_lp([0.0, 0.0], [[1.0]], [0.5], [0.0], [1.0])

    def test_matches_reference_solver_on_random_programs(self):
        rng = np.random.default_rng(1723)
        optimal_seen = 0
        for _ in range(60):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, n))
            A = rng.normal(size=(m, n))
            lo = np.zeros(n)
            hi = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 4.0, n), np.inf)
            x0 = np.array(
                [rng.uniform(l, h if np.isfinite(h) else l + 3.0) for l, h in zip(lo, hi)]
            )
            b = A @ x0
            c = rng.normal(size=n)
            mine = solve_bounded_lp(c, A, b, lo, hi)
            ref = linprog(
                c,
                A_eq=A,
                b_eq=b,
                bounds=[(l, h if np.isfinite(h) else None) for l, h in zip(lo, hi)],
                method="highs",
            )
            if ref.status == 0:
                assert mine.status == "optimal"
                assert mine.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)
                optimal_seen += 1
            elif ref.status == 3:
                assert mine.status == "unbounded"
            else:
                pytest.fail(f"reference solver returned status {ref.status}")
        assert optimal_seen >= 20

    def test_detects_random_infeasible_programs(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(1, n))
            A = rng.normal(size=(m, n))
            x0 = rng.uniform(0.0, 2.0, n)
            b = A @ x0
            # duplicate a row with a shifted right side: no x satisfies both
            A2 = np.vstack([A, A[0]])
            b2 = np.concatenate([b, [b[0] + 1.0]])
            res = solve_bounded_lp(np.zeros(n), A2, b2, np.zeros(n), np.full(n, 10.0))
            assert res.status == "infeasible"


class TestNetworkParsing:
    def test_round_trip_fields(self):
        net = parse_network(net_text())
        assert net.buses == (1, 2, 3)
        assert len(net.generators) == 1
        assert net.generators[0].bus == 1
        assert net.generators[0].capacity == 4.0
        assert len(net.lines) == 2
        assert math.isinf(net.lines[0].limit)
        assert net.lines[1].limit == 3.0
        assert net.loads == {3: 2.0}
        assert [s.bus for s in net.slots] == [2, 3]
        assert net.reference_bus == 1
        dom = net.slot_domain()
        assert (dom.x_min, dom.x_max, dom.y_min, dom.y_max) == (0.0, 6.0, 0.0, 4.0)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\n" + net_text().replace(
            "[loads]", "# loads follow\n[loads]"
        )
        net = parse_network(text)
        assert net.loads == {3: 2.0}

    def test_repeated_load_rows_accumulate(self):
        net = parse_network(net_text(loads="3  2.0\n3  1.5"))
        assert net.loads == {3: 3.5}

    def test_data_before_header_rejected(self):
        with pytest.raises(InputError, match="before any section"):
            parse_network("1\n" + net_text())

    def test_missing_section_rejected(self):
        text = net_text().replace("[loads]\n3  2.0\n", "")
        with pytest.raises(InputError, match=r"missing \[loads\]"):
            parse_network(text)

    def test_duplicate_bus_rejected(self):
        with pytest.raises(InputError, match="duplicate bus"):
            parse_network(net_text(buses="1\n2\n2\n3"))

    def test_unknown_bus_rejected(self):
        with pytest.raises(InputError, match="unknown bus 7"):
            parse_network(net_text(gens="7  5.0  4.0"))

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(InputError, match="capacity must be positive"):
            parse_network(net_text(gens="1  5.0  0.0"))

    def test_infinite_capacity_rejected(self):
        # an unbounded generator column would fail inside the simplex
        # ("every variable needs a finite lower bound") with no line named
        with pytest.raises(InputError, match="line 6: capacity must be positive and finite"):
            parse_network(net_text(gens="1  5.0  inf"))

    @pytest.mark.parametrize("cost", ["inf", "-inf"])
    def test_infinite_cost_rejected(self, cost):
        with pytest.raises(InputError, match="line 6: cost must be finite"):
            parse_network(net_text(gens=f"1  {cost}  4.0"))

    def test_bad_numeric_token_rejected(self):
        with pytest.raises(InputError, match="bad cost"):
            parse_network(net_text(gens="1  cheap  4.0"))

    def test_zero_reactance_rejected(self):
        with pytest.raises(InputError, match="reactance must be positive"):
            parse_network(net_text(lines="1  2  0.0  inf\n2  3  0.2  3.0"))

    def test_negative_limit_rejected(self):
        with pytest.raises(InputError, match="limit must be positive"):
            parse_network(net_text(lines="1  2  0.1  inf\n2  3  0.2  -3.0"))

    def test_self_loop_line_rejected(self):
        # a line from a bus to itself would break the angle and balance rows
        with pytest.raises(InputError, match="line 9: line joins bus 2 to itself"):
            parse_network(net_text(lines="1  2  0.1  inf\n2  2  0.05  0.5\n2  3  0.2  3.0"))

    def test_infinite_demand_rejected(self):
        with pytest.raises(InputError, match="demand must be finite"):
            parse_network(net_text(loads="3  inf"))

    def test_slot_count_enforced(self):
        with pytest.raises(InputError, match="exactly two renewable slots"):
            parse_network(net_text(slots="2  6.0"))
        with pytest.raises(InputError, match="exactly two renewable slots"):
            parse_network(net_text(slots="1  2.0\n2  6.0\n3  4.0"))

    def test_row_arity_enforced(self):
        with pytest.raises(InputError, match="load rows"):
            parse_network(net_text(loads="3"))

    def test_load_network_from_file(self, tmp_path):
        p = tmp_path / "net.txt"
        p.write_text(net_text())
        net = load_network(p)
        assert net.buses == (1, 2, 3)

    def test_load_network_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_network(tmp_path / "absent.txt")

    def test_packaged_network(self):
        net = default_network()
        assert net.buses == (1, 2, 3, 4, 5)
        assert len(net.generators) == 3
        assert len(net.lines) == 6
        assert sum(net.loads.values()) == pytest.approx(10.0)
        assert [s.rating for s in net.slots] == [10.0, 7.0]
        assert net.reference_bus == 1
        finite_limits = sorted(
            ln.limit for ln in net.lines if math.isfinite(ln.limit)
        )
        assert finite_limits == [1.8, 2.0]


def assert_bits(actual, expected):
    """Equal as float64 arrays, down to the sign of each zero."""
    expected = np.asarray(expected, dtype=np.float64)
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == np.float64 and actual.tobytes() == expected.tobytes()


class TestFeasibilityProgram:
    def test_packaged_program_is_pinned_to_the_bit(self):
        # the walk's labels, the kept bases and every recorded output follow
        # these bytes; a rewrite of the builder must keep them, -0.0 included
        lp = build_feasibility_lp(default_network())
        h = hashlib.sha256()
        for a in (lp.program.A, lp.b_base, lp.program.lo, lp.program.hi, lp.cost):
            assert a.dtype == np.float64
            h.update(a.tobytes())
        assert h.hexdigest() == (
            "fd58698841371f2121b00e3ec87ee15f54023ea8d998e876d777149a0a784110"
        )
        assert lp.slot_rows == (6, 10)

    def test_three_bus_program_written_out(self):
        # a parallel pair of lines 2 -> 3 and two generators on bus 3;
        # columns g1 g3 g3' | t2 t3 | f12 f23 f23', rows one per line, then
        # one per bus
        net = parse_network(
            net_text(
                gens="1  10.0  2.0\n3  20.0  1.0\n3  25.0  0.5",
                lines="1  2  0.1  1.5\n2  3  0.2  inf\n2  3  0.4  1.0",
                loads="2  3.0",
                slots="1  4.0\n3  2.0",
            )
        )
        lp = build_feasibility_lp(net)
        assert_bits(
            lp.program.A,
            [
                [0, 0, 0, 1, 0, 0.1, 0, 0],
                [0, 0, 0, -1, 1, 0, 0.2, 0],
                [0, 0, 0, -1, 1, 0, 0, 0.4],
                [-1, 0, 0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, -1, 1, 1],
                [0, -1, -1, 0, 0, 0, -1, -1],
            ],
        )
        # buses without load balance to -0.0
        assert_bits(lp.b_base, [0.0, 0.0, 0.0, -0.0, -3.0, -0.0])
        # an uncapped line is bounded by the heaviest flow, capacity plus
        # ratings plus load; the angles by 1 plus the sum of reactance times
        # cap over the lines, in line order
        heaviest = (2.0 + 1.0 + 0.5) + (4.0 + 2.0) + 3.0
        span = 1.0 + (0.1 * 1.5 + 0.2 * heaviest + 0.4 * 1.0)
        assert_bits(lp.program.lo, [0, 0, 0, -span, -span, -1.5, -heaviest, -1.0])
        assert_bits(lp.program.hi, [2.0, 1.0, 0.5, span, span, 1.5, heaviest, 1.0])
        assert_bits(lp.cost, [10.0, 20.0, 25.0, 0, 0, 0, 0, 0])
        assert lp.slot_rows == (3, 5)


class TestFeasibilityRegion:
    def test_reference_injection_pair_labels(self):
        c = make_dcopf_classifier(default_network())
        assert c.query(Point2(0.4, 4.74)) == 1
        assert c.query(Point2(10.0, 7.0)) == 0

    def test_zero_injection_is_short_on_generation(self):
        # dispatchable capacity totals 8.9 against 10.0 of load
        lp = build_feasibility_lp(default_network())
        assert not lp_feasible(lp, (0.0, 0.0))

    def test_shortfall_cut_sits_at_combined_deficit(self):
        lp = build_feasibility_lp(default_network())
        assert not lp_feasible(lp, (0.6, 0.49))
        assert lp_feasible(lp, (0.6, 0.51))
        assert not lp_feasible(lp, (0.54, 0.54))
        assert lp_feasible(lp, (0.56, 0.56))

    def test_midpoints_of_feasible_pairs_stay_feasible(self):
        lp = build_feasibility_lp(default_network())
        rng = np.random.default_rng(42)
        feasible = []
        while len(feasible) < 20:
            p = (rng.uniform(0.0, 10.0), rng.uniform(0.0, 7.0))
            if lp_feasible(lp, p):
                feasible.append(p)
        for i in range(0, 20, 2):
            a, b = feasible[i], feasible[i + 1]
            mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            assert lp_feasible(lp, mid)

    def test_classifier_counts_queries(self):
        c = make_dcopf_classifier(default_network())
        c.query(Point2(1.0, 1.0))
        c.query(Point2(9.0, 6.0))
        assert c.query_count == 2

    def test_plain_tuple_and_point_get_the_same_label(self):
        c = make_dcopf_classifier(default_network())
        for xy in [(0.4, 4.74), (10.0, 7.0), (0.6, 0.51), (0.6, 0.49)]:
            assert c.query(xy) == c.query(Point2(*xy))
        assert c.query_count == 8

    def test_verdict_matches_reference_solver(self):
        lp = build_feasibility_lp(default_network())
        bounds = [
            (l, h if np.isfinite(h) else None) for l, h in zip(lp.program.lo, lp.program.hi)
        ]
        rng = np.random.default_rng(91)
        disagreements = 0
        for _ in range(200):
            p = (rng.uniform(0.0, 10.0), rng.uniform(0.0, 7.0))
            mine = lp_feasible(lp, p)
            ref = linprog(
                np.zeros(lp.program.A.shape[1]),
                A_eq=lp.program.A,
                b_eq=lp.rhs(p),
                bounds=bounds,
                method="highs",
            )
            assert ref.status in (0, 2)
            if mine != (ref.status == 0):
                disagreements += 1
        assert disagreements == 0


class TestDispatch:
    def test_schedule_is_consistent_and_within_ratings(self):
        net = default_network()
        d = dispatch(net, (0.4, 4.74))
        assert d.feasible
        for g, p in d.generation:
            assert -1e-9 <= p <= g.capacity + 1e-9
        gen_at = {}
        for g, p in d.generation:
            gen_at[g.bus] = gen_at.get(g.bus, 0.0) + p
        inj_at = {s.bus: v for s, v in zip(net.slots, (0.4, 4.74))}
        flow = dict(zip(net.lines, (f for _, f in d.flows)))
        for ln, f in flow.items():
            assert abs(f) <= ln.limit + 1e-7
            drop = d.angles[ln.from_bus] - d.angles[ln.to_bus]
            assert f * ln.reactance == pytest.approx(drop, abs=1e-7)
        for bus in net.buses:
            out = sum(f for ln, f in flow.items() if ln.from_bus == bus)
            inc = sum(f for ln, f in flow.items() if ln.to_bus == bus)
            net_supply = gen_at.get(bus, 0.0) + inj_at.get(bus, 0.0)
            assert out - inc == pytest.approx(
                net_supply - net.loads.get(bus, 0.0), abs=1e-7
            )

    def test_cost_matches_reference_optimum(self):
        net = default_network()
        lp = build_feasibility_lp(net)
        bounds = [
            (l, h if np.isfinite(h) else None) for l, h in zip(lp.program.lo, lp.program.hi)
        ]
        for inj in [(0.4, 4.74), (1.0, 3.0), (2.0, 1.0)]:
            d = dispatch(net, inj)
            ref = linprog(
                lp.cost, A_eq=lp.program.A, b_eq=lp.rhs(inj), bounds=bounds, method="highs"
            )
            assert ref.status == 0 and d.feasible
            assert d.cost == pytest.approx(ref.fun, rel=1e-8, abs=1e-8)

    def test_infeasible_injections_report_no_schedule(self):
        d = dispatch(default_network(), (10.0, 7.0))
        assert not d.feasible
        assert d.cost is None
        assert d.generation == [] and d.flows == []


class TestWalkOnNetwork:
    def test_walk_closes_around_feasible_region(self):
        c = make_dcopf_classifier(default_network())
        cfg = EdgeConfig(
            epsilon=0.25,
            seed_interior=Point2(0.4, 4.74),
            seed_exterior=Point2(10.0, 7.0),
        )
        est = run_edge(c, cfg)
        assert est.termination is Termination.CLOSED_LOOP
        dom = c.domain
        for p in est.inner + est.outer:
            assert dom.contains(p)
        assert est.total_queries == c.query_count
