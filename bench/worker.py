"""One workload in one process: set-up probe, measured run or traced run.

`run.py` starts this script as a child with BLAS and OpenMP threads pinned
to 1, once per set-up probe and once per workload, and reads the JSON
object on the last line of its standard output.

    python3 bench/worker.py --workload run-levelset --seed 1 --seconds 25
    python3 bench/worker.py --workload study-dcopf --setup-probe
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import time

import workloads as wl

# the reference loop runs on a timer this often while a pass runs, and
# lasts about 4 ms: shorter loops read the cold caches left by the program
# more than the host's speed
SAMPLE_INTERVAL_S = 0.2
REF_SOLVES = 400


def _median(values):
    return statistics.median(values) if values else None


def reference_loop() -> float:
    """Seconds taken by a fixed piece of the benchmark's own work.

    The host's speed drifts by more than half over minutes, and every
    workload slows with it.  This loop of small numpy calls made from
    Python slows the same way as the program's query loops.  It allocates
    no objects the garbage collector tracks, so the program's heap does not
    change its time.
    """
    # imported here, not at the top: a set-up probe must pay for edgewalk's
    # own numpy import
    import numpy as np

    a = np.arange(36.0).reshape(6, 6) + 50.0 * np.eye(6)
    v = np.ones(6)
    t0 = time.perf_counter()
    for _ in range(REF_SOLVES):
        v = np.linalg.solve(a, v + 1.0)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the reference loop every SAMPLE_INTERVAL_S while a pass runs.

    A timer signal runs the loop between the program's own bytecodes, so the
    samples follow the host's speed through the pass, and a pass's time
    divided by their mean stays put while the host's speed does not.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(reference_loop())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def in_reference_loops(wall: float, samples: list[float]) -> float:
    """A pass's time, less its samples, in units of their mean."""
    return (wall - sum(samples)) * len(samples) / sum(samples)


class Runner:
    """Runs passes of one workload and checks every pass's outputs."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.passes: list[dict] = []
        self.problems: list[str] = []
        self.observed: dict = {}
        shutil.rmtree(wl.OUT / workload, ignore_errors=True)
        (wl.OUT / workload).mkdir(parents=True)
        if workload == wl.SHAPES:
            from edgewalk import EdgeConfig

            self.shapes = wl.generate_shapes(seed)
            self.classifiers = wl.build_classifiers(workload, seed)
            self.config = EdgeConfig(epsilon=wl.SHAPE_EPSILON)
            self.reference_outcomes = None
        else:
            self.ops = wl.CLI_WORKLOADS[workload]
            for op in self.ops:
                wl.op_dir(workload, op).mkdir(parents=True, exist_ok=True)
            self.expected = None

    def run_pass(self, main=None, tracer=None) -> dict:
        """One timed pass, then its output checks outside the timed region.

        An untraced pass samples the host's speed while it runs; a traced
        pass does not, and its timed region is the pass's root span.
        """
        timed = tracer.run_pass() if tracer is not None else SpeedSampler()
        t0 = time.perf_counter()
        if self.workload == wl.SHAPES:
            result = self._shapes_pass(timed)
        else:
            result = self._cli_pass(timed, main, tracer)
        samples = getattr(timed, "samples", None)
        if samples:
            result["wall_ref"] = in_reference_loops(result["wall_s"], samples)
            result["wall_s"] -= sum(samples)
            result["samples"] = samples
        result["elapsed_s"] = time.perf_counter() - t0
        self.passes.append(result)
        return result

    def _cli_pass(self, timed, main, tracer) -> dict:
        from edgewalk import cli

        main = main or cli.main
        times, codes = [], []
        with timed:
            t_pass = time.perf_counter()
            for op in self.ops:
                t0 = time.perf_counter()
                codes.append(wl.call_cli(main, self.workload, op))
                times.append(time.perf_counter() - t0)
            wall = time.perf_counter() - t_pass

        observed = {
            op.name: wl.observe(self.workload, op, rc)
            for op, rc in zip(self.ops, codes)
        }
        written = sum(wl.bytes_written(self.workload, op) for op in self.ops)
        if tracer is not None:
            tracer.counters[tracer.pass_no]["cli.bytes_written"] = written
        if self.expected is not None:
            self.problems += wl.compare_outputs(observed, self.expected)
        self.observed = observed
        asd = [observed[op.name].get("edge_asd") for op in self.ops if op.kind == "compare"]
        asd = [a for a in asd if a is not None]
        return {
            "wall_s": wall,
            "run_s": sum(t for op, t in zip(self.ops, times) if op.kind == "run"),
            "compare_s": sum(t for op, t in zip(self.ops, times) if op.kind == "compare"),
            "op_s": times,
            "queries": sum(wl.op_queries(op, observed[op.name]) for op in self.ops),
            "attempted": len(self.ops),
            "failed": sum(wl.op_failed(op, observed[op.name]) for op in self.ops),
            "asd": sum(asd) if asd else None,
        }

    def _shapes_pass(self, timed) -> dict:
        from edgewalk import walk

        times, outcomes, estimates = [], [], []
        with timed:
            t_pass = time.perf_counter()
            for c in self.classifiers:
                t0 = time.perf_counter()
                outcome, est = wl.run_shape(walk, self.config, c)
                times.append(time.perf_counter() - t0)
                outcomes.append(outcome)
                estimates.append(est)
            wall = time.perf_counter() - t_pass

        if self.reference_outcomes is None:
            # first pass: check every point's label against the true shape
            self.reference_outcomes = outcomes
            for shape, outcome, est in zip(self.shapes, outcomes, estimates):
                self.problems += wl.check_shape(shape, outcome, est)
        elif outcomes != self.reference_outcomes:
            diff = sum(a != b for a, b in zip(outcomes, self.reference_outcomes))
            self.problems.append(
                f"{diff} shapes changed outcome or query counts between passes"
            )
        return {
            "wall_s": wall,
            "run_s": sum(times),
            "compare_s": None,
            "op_s": times,
            "queries": sum(o[1] for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(wl.shape_failed(o) for o in outcomes),
            "budget_exhausted": sum(o[0] == "budget_exhausted" for o in outcomes),
            "asd": None,
            "outcomes": sorted({o[0] for o in outcomes}),
        }


def _passes(runner: Runner, seconds: float, started: float, **kwargs) -> list[dict]:
    """Passes until the next one would end after `seconds`; at least one."""
    done = []
    while True:
        done.append(runner.run_pass(**kwargs))
        elapsed = time.perf_counter() - started
        if elapsed + _median([p["elapsed_s"] for p in done]) > seconds:
            return done


def _e2e(runner: Runner, passes: list[dict]) -> dict:
    walls = [p["wall_s"] for p in passes]
    queries = [p["queries"] for p in passes]
    if len(set(queries)) != 1:
        runner.problems.append(f"query counts differ between passes: {queries}")
    wall = _median(walls)
    run_s = [p["run_s"] for p in passes if p["run_s"]]
    compare_s = [p["compare_s"] for p in passes if p["compare_s"]]
    asd = {p["asd"] for p in passes if p["asd"] is not None}
    return {
        "walls": walls,
        "wall_s": wall,
        "wall_ref": _median([p["wall_ref"] for p in passes]),
        "ref_loop_s": _median([t for p in passes for t in p["samples"]]),
        "run_s": _median(run_s),
        "compare_s": _median(compare_s),
        "queries": queries[0],
        "queries_per_s": queries[0] / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "asd": asd.pop() if len(asd) == 1 else None,
        "op_ms": sorted(1e3 * t for p in passes for t in p["op_s"]),
    }


def _traced(runner: Runner, seconds: float, started: float) -> dict:
    """Untraced passes for a third of the time, then traced passes."""
    import tracing
    from edgewalk import cli

    untraced = _passes(runner, seconds / 3.0, started)
    tracer = tracing.Tracer()
    timed, alloc_pass = [], None
    with tracing.installed(tracer):
        main = tracer.wrap("cli.main", cli.main)
        while True:
            runner.run_pass(main=main, tracer=tracer)
            timed.append(tracer.pass_no)
            if alloc_pass is None and tracer.count["marching.nodes"]:
                # a separate pass measures marching allocations, so the
                # timed passes carry no tracemalloc cost
                tracer.measure_alloc = True
                runner.run_pass(main=main, tracer=tracer)
                tracer.measure_alloc = False
                alloc_pass = tracer.pass_no
            elapsed = time.perf_counter() - started
            if elapsed + _median([tracer.pass_wall(p) for p in timed]) > seconds:
                break

    per_pass = [tracing.pass_metrics(tracer, p) for p in timed]
    layers = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
    if alloc_pass is not None:
        peak = tracer.counters[alloc_pass]["marching.marching_squares.peak_alloc_bytes"]
        layers["marching.peak_alloc_mb"] = peak / 2**20
    layers["trace.untraced_wall_s"] = _median([p["wall_s"] for p in untraced])
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    out = wl.OUT / runner.workload / "spans.npz"
    tracer.write(out)
    return {
        "per_layer": {k: layers[k] for k in tracing.PER_LAYER_UNITS},
        "span_table": tracing.layer_self_table(tracer, timed[len(timed) // 2]),
        "traced_passes": len(timed),
        "untraced_passes": len(untraced),
        "spans": len(tracer.start),
        "spans_file": str(out.relative_to(wl.ROOT)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time import plus classifier construction, then exit")
    p.add_argument("--record", action="store_true",
                   help="run one pass and store its outputs as the expected ones")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    wl.import_edgewalk()
    if args.setup_probe:
        wl.build_classifiers(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    runner = Runner(args.workload, args.seed)
    if args.record:
        if args.workload == wl.SHAPES:
            raise SystemExit("error: shapes-random has no recorded outputs")
        runner.run_pass()
        wl.save_expected(args.workload, runner.observed)
        print(json.dumps({"recorded": runner.observed}))
        return 0
    if args.workload != wl.SHAPES:
        runner.expected = wl.load_expected(args.workload)

    started = time.perf_counter()
    if args.trace:
        result = _traced(runner, args.seconds, started)
    else:
        result = {"e2e": _e2e(runner, _passes(runner, args.seconds, started))}
    result.update(
        workload=args.workload,
        seed=args.seed,
        passes=len(runner.passes),
        attempted=sum(p["attempted"] for p in runner.passes),
        failed=sum(p["failed"] for p in runner.passes),
        budget_exhausted=sum(p.get("budget_exhausted", 0) for p in runner.passes),
        outcomes=sorted({o for p in runner.passes for o in p.get("outcomes", ())}),
        problems=runner.problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
