"""The package runs on numpy alone: no scipy module ever loads.

Walking, gridding, contouring, the DC-OPF oracle and scoring included.
pytest's own process has scipy loaded already (the tests use it as an
oracle), so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = r"""
import json
import sys
import tempfile

def scipy_modules():
    return sorted({m for m in sys.modules if m.split(".")[0] == "scipy"})

import edgewalk
from edgewalk import cli

seen = {}
seen["import"] = scipy_modules()

rosen = edgewalk.CANONICAL_SPECS["rosenbrock"]
edgewalk.run_edge(
    edgewalk.make_test_classifier("rosenbrock"), edgewalk.EdgeConfig(epsilon=0.5)
)
edgewalk.make_classifier(rosen.fn, rosen.threshold, rosen.domain).query((1.0, 1.0))
net = edgewalk.default_network()
edgewalk.make_dcopf_classifier(net).query(edgewalk.Point2(0.4, 4.74))
edgewalk.dispatch(net, (0.4, 4.74))
edgewalk.run_grid(edgewalk.make_test_classifier("beale"), 0.5)
edgewalk.marching_squares(rosen.fn, rosen.threshold, rosen.domain, 0.5)
reference = edgewalk.reference_from_scalar(rosen.fn, rosen.threshold, rosen.domain, 0.1)
with tempfile.TemporaryDirectory() as out:
    argv = ["run", "rosenbrock", "--epsilon", "0.5", "--out", out, "--plot", "--log-queries"]
    assert cli.main(argv) == 0
    assert cli.main(["dispatch", "0.4", "4.74", "--json"]) == 0
seen["unscored"] = scipy_modules()

edgewalk.asd_to_reference([(1.0, 1.0)], [(1.0, 1.5)], reference)
edgewalk.coverage_within([(1.0, 1.0)], reference, 0.1)
edgewalk.average_symmetric_distance([(1.0, 1.0)], [(1.0, 1.5)])
reference.nn_distances([(1.0, 1.0)])
with tempfile.TemporaryDirectory() as out:
    argv = ["run", "beale", "--epsilon", "0.1", "--reference-cell", "0.01", "--out", out]
    assert cli.main(argv) == 0
    assert cli.main(["compare", "beale", "--epsilons", "0.2", "--out", out]) == 0
seen["scored"] = scipy_modules()
print(json.dumps(seen))
"""


def test_scipy_never_loads():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "unscored": [], "scored": []}
