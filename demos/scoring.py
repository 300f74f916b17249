"""Two ways to score an estimate when accuracy matters.

With the scalar field in hand, a marching-squares contour is the
reference.  When only the black box exists, a second walk at a tenth of
the step size stands in for it; the scorer refuses references that are
too coarse to trust.

Run:  python3 demos/scoring.py
"""

from edgewalk import (
    CANONICAL_SPECS,
    EdgeConfig,
    ReferenceResolutionError,
    asd_to_reference,
    coverage_within,
    make_test_classifier,
    reference_from_estimate,
    reference_from_scalar,
    run_edge,
)

EPSILON = 0.1


def main():
    spec = CANONICAL_SPECS["beale"]
    est = run_edge(make_test_classifier("beale"), EdgeConfig(epsilon=EPSILON))
    print(f"walk at eps={EPSILON}: {est.total_queries} queries")

    # route 1: contour the known field
    ref = reference_from_scalar(spec.fn, spec.threshold, spec.domain, EPSILON / 10.0)
    score = asd_to_reference(est.inner, est.outer, ref, epsilon=EPSILON)
    print(
        f"scalar reference:    asd {score.total:.4f} "
        f"(interior {score.inner:.4f}, exterior {score.outer:.4f})"
    )

    # route 2: a ten-times-finer walk of the same black box
    fine = run_edge(make_test_classifier("beale"), EdgeConfig(epsilon=EPSILON / 10.0))
    blackbox_ref = reference_from_estimate(fine)
    score = asd_to_reference(est.inner, est.outer, blackbox_ref, epsilon=EPSILON)
    print(
        f"black-box reference: asd {score.total:.4f} "
        f"({fine.total_queries} extra queries, slack {blackbox_ref.slack:g}, "
        f"{len(blackbox_ref.points)} of {len(fine.points_in_order()) - 1} "
        "midpoints kept)"
    )

    # a same-resolution walk is refused as a reference
    peer = reference_from_estimate(est)
    try:
        asd_to_reference(est.inner, est.outer, peer, epsilon=EPSILON)
    except ReferenceResolutionError as exc:
        print(f"coarse reference:    refused ({exc})")

    # every point should lie within eps of the decision boundary, but for
    # the interior points the walk steps along the rim
    dom = spec.domain

    def on_rim(p):
        gap = min(p.x - dom.x_min, dom.x_max - p.x, p.y - dom.y_min, dom.y_max - p.y)
        return gap <= dom.geom_tol

    off_rim = est.outer + [p for p in est.inner if not on_rim(p)]
    cov = coverage_within(off_rim, ref, EPSILON + EPSILON / 10.0)
    print(
        f"boundary coverage:   {cov.fraction_within:.0%} within eps+cell "
        f"(worst distance {cov.max_distance:.4f}, "
        f"{len(est.inner) + len(est.outer) - len(off_rim)} rim points exempt)"
    )


if __name__ == "__main__":
    main()
