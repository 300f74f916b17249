"""Benchmark for edgewalk: one command, four workloads, checked outputs.

    python3 bench/run.py                          # every workload, untraced
    python3 bench/run.py --workload study-dcopf --seed 3 --seconds 25
    python3 bench/run.py --workload compare-levelset --trace 1
    python3 bench/run.py --workload run-levelset --record   # re-record outputs

Each workload runs in its own child process (bench/worker.py), one after
another, with BLAS and OpenMP threads pinned to 1.  An untraced run first
times a few fresh-process set-ups, then repeats passes over the workload
for --seconds and reports the end-to-end metrics; a traced run (--trace 1)
wraps every layer's public entry points and reports the per-layer split.
Untraced passes also time a fixed reference loop every 0.2 s, and wall_ref,
the pass time in units of that loop, is the gated timing: on a shared host
it holds still while raw seconds drift.
Every pass's outputs are checked against bench/expected.json (query counts,
terminations, sha256 of points.csv / queries.csv, ASD to 1e-12), or, for
shapes-random, against the analytic shapes and the first pass.  A mismatch
exits with status 1.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import PER_LAYER_UNITS
from workloads import SHAPES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0

# end-to-end metrics in BENCHMARK.json: the ones that are non-zero on every
# workload; queries_per_s is printed but left out, being queries / wall_s.
# wall_ref stands in for wall_s: the host's speed drifts too much over the
# minutes between runs for a bound on raw seconds to hold
GATED = {
    "setup_s": "s",
    "wall_ref": "ref",
    "queries": "count",
    "peak_rss_mb": "MB",
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and parse its last output line."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def host_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                line.split(":", 1)[1].strip() for line in f if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it.

    None when that percentile would sit below the median (under 20 samples).
    """
    n = len(values)
    if n < 20:
        return None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)


def report_e2e(res: dict, setup: list[float]) -> dict:
    """Print every end-to-end metric; return the gated ones."""
    e = res["e2e"]
    n = res["passes"]
    walls = e["walls"]
    tail = tail_percentile(walls)
    tail_txt = (
        f"{tail[0]} {tail[1]:.6g}"
        if tail
        else f"max {max(walls):.6g}; too few passes for a tail percentile with 10 beyond it"
    )
    op_ms = e["op_ms"]
    op_tail = tail_percentile(op_ms)
    fail_ratio = (res["failed"] + res["budget_exhausted"]) / res["attempted"]
    rows = [
        ("setup_s", statistics.median(setup), "s", len(setup),
         "median of fresh-process imports plus classifier builds"),
        ("wall_s", e["wall_s"], "s", n, f"median pass; {tail_txt}"),
        ("wall_ref", e["wall_ref"], "ref", n,
         f"median pass in reference loops, each {e['ref_loop_s'] * 1e3:.4g} ms "
         "(median) when timed during the passes"),
        ("run_s", e["run_s"], "s", n,
         "median per pass, speed samples included" if e["run_s"] else "no run invocations"),
        ("compare_s", e["compare_s"], "s", n,
         "median per pass, speed samples included" if e["compare_s"] else "no compare invocations"),
        ("queries", e["queries"], "count", n, "oracle queries per pass, identical every pass"),
        ("queries_per_s", e["queries_per_s"], "1/s", n, "queries / median wall_s"),
        ("peak_rss_mb", e["peak_rss_mb"], "MB", 1, "peak RSS of the workload process"),
        ("asd", e["asd"], "1", n,
         "summed walk ASD, checked to 1e-12" if e["asd"] is not None else "no scored walks"),
        ("fail_ratio", fail_ratio, "ratio", res["attempted"],
         f"{res['failed']} failed and {res['budget_exhausted']} budget_exhausted "
         f"of {res['attempted']} operations"),
    ]
    print(f"{'metric':<14} {'value':>14} {'unit':<6} {'n':>6}  detail")
    for name, value, unit, count, detail in rows:
        print(f"{name:<14} {_fmt(value):>14} {unit:<6} {count:>6}  {detail}")
    op_txt = f"{op_tail[0]} {op_tail[1]:.6g}" if op_tail else f"max {max(op_ms):.6g}"
    print(f"operation latency ms: p50 {statistics.median(op_ms):.6g}, {op_txt} (n={len(op_ms)})")
    values = {name: value for name, value, *_ in rows}
    return {k: {"value": values[k], "unit": u} for k, u in GATED.items()}


def report_trace(res: dict) -> dict:
    """Print the per-layer split; return every per-layer metric."""
    layers = res["per_layer"]
    print(
        f"traced passes {res['traced_passes']}, untraced passes {res['untraced_passes']}, "
        f"{res['spans']} spans written to {res['spans_file']}"
    )
    print(f"{'span':<38} {'calls':>9} {'busy_s':>10} {'self_s':>10}")
    for name, (calls, busy, own) in sorted(res["span_table"].items()):
        print(f"{name:<38} {calls:>9} {busy:>10.4f} {own:>10.4f}")
    print(f"{'per-layer metric':<34} {'value':>14} unit")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name:<34} {_fmt(layers[name]):>14} {unit}")
    gap = layers["trace.wall_s"] - layers["trace.self_sum_s"]
    print(
        f"layer self times sum to {layers['trace.self_sum_s']:.4f} s of traced wall_s "
        f"{layers['trace.wall_s']:.4f} s (gap {gap:.4f} s); tracing overhead "
        f"{layers['trace.overhead_s']:.4f} s over untraced wall_s "
        f"{layers['trace.untraced_wall_s']:.4f} s"
    )
    return {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    p.add_argument("--seed", type=int, default=1, help="seed for generated inputs")
    p.add_argument("--seconds", type=float, default=25.0, help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store one pass's outputs as the expected ones")
    args = p.parse_args(argv)
    # a terminated run unwinds through subprocess.run, which kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "edgewalk" / "__init__.py").is_file():
        print(f"error: no edgewalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)

    if args.record:
        for name in names:
            if name != SHAPES:
                run_child(["--workload", name, "--record"], deadline)
                print(f"recorded {name} outputs in {BENCH / 'expected.json'}")
        return 0

    host = host_record()
    print(
        f"host: nproc={host['nproc']} cpu={host['cpu']!r} python={host['python']} "
        f"numpy={host['numpy']} scipy={host['scipy']}; "
        f"child threads pinned: {', '.join(v + '=1' for v in THREAD_VARS)}"
    )
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        common = ["--workload", name, "--seed", str(args.seed)]
        setup = []
        if not args.trace:
            setup = [
                run_child([*common, "--setup-probe"], deadline)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
        res = run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        print(
            f"\n== {name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}  "
            f"passes={res['passes']}"
        )
        got = report_trace(res) if args.trace else report_e2e(res, setup)
        if res["outcomes"]:
            print(f"walk outcomes seen: {', '.join(res['outcomes'])}")
        if res["problems"]:
            correct = False
            print(f"OUTPUT CHECK FAILED ({len(res['problems'])} problems):")
            for problem in res["problems"][:20]:
                print(f"  {problem}")
        else:
            print("output checks passed on every pass")
        if res["budget_exhausted"]:
            print(
                f"budget_exhausted walks (clipped-boundary defect): "
                f"{res['budget_exhausted']} of {res['attempted']}; their partial "
                "estimates passed the label checks and they are not counted as failed"
            )
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}:"
        metrics.update({prefix + k: v for k, v in got.items()})
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
