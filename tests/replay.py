"""Replay a finished walk from its log, with no classifier.

`replay(estimate, domain)` drives the walk's point generator,
`edgewalk.walk._walk_points`, from the estimate's bracket pair and
epsilon, sending it the logged label of each point it yields.  The walk is
a function of the labels it is sent, so it must yield the logged walk
points again, each bit for bit, and then end the way the run ended:

- `closed_loop`: the generator returns right after the last logged point;
- `failed`: it raises GeometricFailureError there, with the logged message;
- `budget_exhausted`: it yields one more point, the one the budget refused.
"""

from __future__ import annotations

from edgewalk.errors import GeometricFailureError
from edgewalk.walk import Termination, _walk_points


def _hex(p) -> tuple[str, str]:
    return p[0].hex(), p[1].hex()


def replay(estimate, domain) -> None:
    """Assert that the walk, sent the logged labels, yields the logged points."""
    log = list(estimate.walk_log())
    walk = _walk_points(domain, estimate.pair, estimate.epsilon)
    # send(None) starts the generator, as next() would
    for i, label in enumerate([None, *(label for _, label in log)]):
        try:
            point = walk.send(label)
        except StopIteration:
            ended, failure = Termination.CLOSED_LOOP, None
            break
        except GeometricFailureError as exc:
            ended, failure = Termination.FAILED, str(exc)
            break
        if i == len(log):
            ended, failure = Termination.BUDGET_EXHAUSTED, None
            break
        assert _hex(point) == _hex(log[i][0]), (
            f"walk point {i} of {len(log)}: the walk yields {point}, "
            f"the log holds {log[i][0]}"
        )
    assert i == len(log), (
        f"the walk ended {ended.value} after {i} of {len(log)} logged points"
    )
    assert (ended, failure) == (estimate.termination, estimate.failure)
