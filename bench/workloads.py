"""Workload definitions, input generation and output checks.

Each workload is one pass over fixed commands, run through the public
entry points only: `edgewalk.cli.main` for the three CLI workloads and
`edgewalk.walk.run_edge` for `shapes-random`.  Names are looked up on the
modules at call time so the traced run's wrappers see every call.

Why these four (each planned optimisation gets one workload where it does
most of the work and others where it should change nothing):

- run-levelset: cheap oracle, so walk/geometry overhead and CLI CSV writing
  dominate; an oracle cache or a contouring change should not move it.
- compare-levelset: area-proportional grid and reference contour dominate;
  narrow-band contouring shows here, a walk change should not.
- study-dcopf: the simplex oracle is ~97% of the time; walk queries hug the
  boundary while grid queries cover the domain, so a certificate cache helps
  run_s and compare_s differently.
- shapes-random: many short walks on random clipped shapes, rim-heavy; the
  same walk layer used differently, and it carries the clipped-boundary
  budget_exhausted defect, which is counted, not hidden.

An operation fails the way the program signals failure: a CLI invocation by
a non-zero exit or a loop that did not close, a `run_edge` call by a typed
error or a `failed` termination.  A `run_edge` call that ends
`budget_exhausted` returns its partial estimate, whose labels are checked
like any other; those walks are counted on their own, as the
clipped-boundary defect, and never hidden.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

ASD_TOL = 1e-12

LEVEL_SETS = ("rosenbrock", "goldstein-price", "beale")
STUDY_SEEDS = ("--seed-in", "0.4,4.74", "--seed-out", "10,7")


@dataclass(frozen=True)
class CliOp:
    """One CLI invocation of a pass; name keys its expected outputs."""

    name: str
    kind: str  # "run" or "compare"
    argv: tuple[str, ...]


CLI_WORKLOADS: dict[str, tuple[CliOp, ...]] = {
    "run-levelset": tuple(
        CliOp(n, "run", ("run", n, "--epsilon", "0.002", "--log-queries"))
        for n in LEVEL_SETS
    ),
    "compare-levelset": tuple(
        CliOp(n, "compare", ("compare", n, "--epsilons", "0.05"))
        for n in LEVEL_SETS
    ),
    "study-dcopf": (
        CliOp(
            "dcopf-run",
            "run",
            ("run", "dcopf", "--epsilon", "0.01", *STUDY_SEEDS, "--plot", "--log-queries"),
        ),
        CliOp("dcopf-compare", "compare", ("compare", "dcopf", "--epsilons", "0.2", *STUDY_SEEDS)),
    ),
}
SHAPES = "shapes-random"
WORKLOADS = (*CLI_WORKLOADS, SHAPES)

# shapes-random: six times the 300 half-planes + 150 ellipses of one draw,
# because how many shapes hit the budget_exhausted defect varies by seed, and
# each such walk spends its whole budget: a single draw makes the per-pass
# work swing by about 10% between seeds, six draws by about 4%
SHAPE_EPSILON = 0.03
N_HALFPLANES = 1800
N_ELLIPSES = 900


def import_edgewalk():
    """Import edgewalk from this checkout's src/, never from elsewhere."""
    if not (SRC / "edgewalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no edgewalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import edgewalk

    if Path(edgewalk.__file__).resolve().parent != SRC / "edgewalk":
        raise SystemExit(f"error: imported edgewalk from {edgewalk.__file__}")
    return edgewalk


# --- shapes-random -----------------------------------------------------------


def generate_shapes(seed: int) -> list[tuple]:
    """Random half-planes and rotated ellipses over [-1, 1]^2 from the seed.

    A half-plane ("halfplane", a, b, c) is a*x + b*y < c with a unit normal
    and an offset that keeps its line inside the square.  An ellipse
    ("ellipse", cx, cy, ra, rb, phi) is centred inside the square; large
    ones are clipped by the domain edge.
    """
    rng = random.Random(seed)
    shapes = []
    for _ in range(N_HALFPLANES):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        a, b = math.cos(theta), math.sin(theta)
        c = rng.uniform(-0.9, 0.9) * (abs(a) + abs(b))
        shapes.append(("halfplane", a, b, c))
    for _ in range(N_ELLIPSES):
        cx, cy = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
        ra, rb = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)
        phi = rng.uniform(0.0, math.pi)
        shapes.append(("ellipse", cx, cy, ra, rb, phi))
    return shapes


def shape_field(shape: tuple):
    """(fn, threshold) whose sublevel set is the shape."""
    if shape[0] == "halfplane":
        _, a, b, c = shape
        return (lambda x, y: a * x + b * y), c
    _, cx, cy, ra, rb, phi = shape
    co, si = math.cos(phi), math.sin(phi)

    def fn(x, y):
        dx, dy = x - cx, y - cy
        u = (dx * co + dy * si) / ra
        v = (-dx * si + dy * co) / rb
        return u * u + v * v

    return fn, 1.0


def build_classifiers(workload: str, seed: int) -> list:
    """Every classifier or network the workload uses, as its set-up builds them."""
    from edgewalk import Domain, default_network, make_classifier, make_dcopf_classifier
    from edgewalk import make_test_classifier

    if workload == SHAPES:
        domain = Domain(-1.0, 1.0, -1.0, 1.0)
        return [
            make_classifier(*shape_field(s), domain, s[0])
            for s in generate_shapes(seed)
        ]
    if workload == "study-dcopf":
        return [make_dcopf_classifier(default_network())]
    return [make_test_classifier(n) for n in LEVEL_SETS]


# --- CLI passes --------------------------------------------------------------


def op_dir(workload: str, op: CliOp) -> Path:
    return OUT / workload / op.name


def call_cli(main, workload: str, op: CliOp) -> int:
    """Run one invocation with its own output directory; stdout is dropped."""
    argv = [*op.argv, "--out", str(op_dir(workload, op))]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def observe(workload: str, op: CliOp, exit_code: int) -> dict:
    """Deterministic outputs of one finished invocation."""
    out = op_dir(workload, op)
    obs: dict = {"exit_code": exit_code}
    report_path = out / "report.json"
    if exit_code not in (0, 3) or not report_path.is_file():
        return obs
    report = json.loads(report_path.read_text())
    if op.kind == "run":
        for key in ("total_queries", "seed_queries", "bisection_queries",
                    "walk_queries", "termination"):
            obs[key] = report[key]
        obs["points_sha256"] = _sha256(out / "points.csv")
        if "--log-queries" in op.argv:
            obs["queries_sha256"] = _sha256(out / "queries.csv")
    else:
        (row,) = report
        for key in ("edge_queries", "grid_queries"):
            obs[key] = row[key]
        for key in ("edge_asd", "grid_asd"):
            obs[key] = row[key] if row[key] != "" else None
    return obs


def bytes_written(workload: str, op: CliOp) -> int:
    return sum(p.stat().st_size for p in op_dir(workload, op).iterdir() if p.is_file())


def op_queries(op: CliOp, obs: dict) -> int:
    if op.kind == "run":
        return obs.get("total_queries", 0)
    return obs.get("edge_queries", 0) + obs.get("grid_queries", 0)


def op_failed(op: CliOp, obs: dict) -> bool:
    """Non-zero exit, or a walk that did not close its loop."""
    if obs["exit_code"] != 0:
        return True
    return op.kind == "run" and obs.get("termination") != "closed_loop"


def compare_outputs(observed: dict, expected: dict) -> list[str]:
    """Mismatches between recorded and observed outputs, op by op.

    Counts, terminations and hashes must match exactly; ASD to ASD_TOL.
    """
    problems = []
    for op_name, want in expected.items():
        got = observed.get(op_name)
        if got is None:
            problems.append(f"{op_name}: no output")
            continue
        for key, w in want.items():
            g = got.get(key)
            if isinstance(w, float) and isinstance(g, float):
                ok = abs(g - w) <= ASD_TOL
            else:
                ok = g == w
            if not ok:
                problems.append(f"{op_name}.{key}: expected {w!r}, got {g!r}")
    return problems


def load_expected(workload: str) -> dict:
    return json.loads(EXPECTED.read_text())[workload]


def save_expected(workload: str, observed: dict) -> None:
    data = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    data[workload] = observed
    EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# --- shapes-random passes ------------------------------------------------------


def run_shape(walk, config, classifier):
    """One run_edge call.

    Returns ((termination or error name, total, seed, bisection and walk
    queries), estimate or None).
    """
    from edgewalk import EdgewalkError

    classifier.reset()
    try:
        est = walk.run_edge(classifier, config)
    except EdgewalkError as exc:
        return (type(exc).__name__, classifier.query_count, 0, 0, 0), None
    outcome = (
        est.termination.value,
        est.total_queries,
        est.seed_queries,
        est.bisection_queries,
        est.walk_queries,
    )
    return outcome, est


def shape_failed(outcome: tuple) -> bool:
    """A typed error or a `failed` termination; budget_exhausted is counted apart."""
    from edgewalk import Termination

    return outcome[0] not in (
        Termination.CLOSED_LOOP.value,
        Termination.BUDGET_EXHAUSTED.value,
    )


def check_shape(shape: tuple, outcome: tuple, est) -> list[str]:
    """Labels of every estimate point agree with the analytic shape."""
    if est is None:
        return []
    problems = []
    total, seed_q, bis_q, walk_q = outcome[1:]
    if total != seed_q + bis_q + walk_q:
        problems.append(f"{shape}: phase queries do not sum to {total}")
    fn, threshold = shape_field(shape)
    if any(not fn(p.x, p.y) < threshold for p in est.inner):
        problems.append(f"{shape}: an inner point lies outside the shape")
    if any(fn(p.x, p.y) < threshold for p in est.outer):
        problems.append(f"{shape}: an outer point lies inside the shape")
    return problems
