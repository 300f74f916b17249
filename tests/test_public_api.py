"""The package's public names, pinned.

A change to `edgewalk.__all__` shows in this list, so adding or removing a
public name is a visible edit, not a side effect.  So does a change to
the fields of `BoundaryEstimate`, the record every run returns.
"""

import dataclasses

import edgewalk

PUBLIC_NAMES = [
    "AsdBreakdown",
    "BoundaryEstimate",
    "BudgetExhaustedError",
    "CANONICAL_SPECS",
    "Classifier",
    "DispatchResult",
    "Domain",
    "EdgeConfig",
    "EdgewalkError",
    "EmptyContourError",
    "GeometricFailureError",
    "GridEstimate",
    "InputError",
    "LevelSetSpec",
    "Network",
    "NoBoundaryFoundError",
    "Point2",
    "ReferenceBoundary",
    "ReferenceResolutionError",
    "SolverError",
    "Termination",
    "asd_to_reference",
    "average_symmetric_distance",
    "beale",
    "build_feasibility_lp",
    "coverage_within",
    "default_network",
    "dispatch",
    "goldstein_price",
    "grid_shape",
    "load_network",
    "lp_feasible",
    "make_classifier",
    "make_dcopf_classifier",
    "make_test_classifier",
    "marching_squares",
    "parse_network",
    "polyline_length",
    "reference_from_estimate",
    "reference_from_scalar",
    "rosenbrock",
    "run_edge",
    "run_grid",
]


def test_public_names_are_pinned():
    assert sorted(edgewalk.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 43


def test_every_public_name_resolves():
    for name in edgewalk.__all__:
        assert getattr(edgewalk, name) is not None, name


ESTIMATE_FIELDS = [
    "xy",
    "labels",
    "pair",
    "scan_label",
    "epsilon",
    "termination",
    "total_queries",
    "seed_queries",
    "bisection_queries",
    "walk_queries",
    "failure",
]


def test_estimate_fields_are_pinned():
    fields = dataclasses.fields(edgewalk.BoundaryEstimate)
    assert [f.name for f in fields] == ESTIMATE_FIELDS
