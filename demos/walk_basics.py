"""Trace the unit circle and inspect the estimate.

The classifier answers one bit per query: is x^2 + y^2 below 1?  The
walk brackets the circle with a bisection, then steps around it in
epsilon-sized hops, banking one labeled point per query.

Run:  python3 demos/walk_basics.py
"""

import math

from edgewalk import Domain, EdgeConfig, make_classifier, run_edge


def main():
    circle = make_classifier(
        lambda x, y: x * x + y * y, 1.0, Domain(-2.0, 2.0, -2.0, 2.0), "circle"
    )
    est = run_edge(circle, EdgeConfig(epsilon=0.05))

    print(f"termination:    {est.termination.value}")
    print(
        f"queries:        {est.total_queries} total = {est.seed_queries} seeding"
        f" + {est.bisection_queries} bisection + {est.walk_queries} walking"
    )
    print(f"estimate:       {len(est.inner)} interior + {len(est.outer)} exterior points")

    radial = [abs(math.hypot(p.x, p.y) - 1.0) for p in est.inner + est.outer]
    print(f"radial error:   worst {max(radial):.4f} against a step size of 0.05")

    # the estimate's points past the bracket pair are the walk's
    efficiency = (len(est.inner) + len(est.outer) - 2) / est.walk_queries
    print(f"walk yield:     {efficiency:.0%} of walk queries became estimate points")

    head = est.points_in_order()[:5]
    print("first points:  ", ", ".join(f"({x:+.3f},{y:+.3f})[{l}]" for (x, y), l in head))


if __name__ == "__main__":
    main()
