"""Decision boundary estimation for 2D black-box binary classifiers."""

from .classifier import (
    CANONICAL_SPECS,
    Classifier,
    LevelSetSpec,
    beale,
    goldstein_price,
    make_classifier,
    make_test_classifier,
    rosenbrock,
)
from .dcopf import (
    DispatchResult,
    Network,
    build_feasibility_lp,
    default_network,
    dispatch,
    load_network,
    lp_feasible,
    make_dcopf_classifier,
    parse_network,
)
from .errors import (
    BudgetExhaustedError,
    EdgewalkError,
    EmptyContourError,
    GeometricFailureError,
    InputError,
    NoBoundaryFoundError,
    ReferenceResolutionError,
    SolverError,
)
from .geometry import Domain, Point2
from .grid import GridEstimate, grid_shape, run_grid
from .marching import marching_squares, polyline_length
from .metrics import (
    AsdBreakdown,
    ReferenceBoundary,
    asd_to_reference,
    average_symmetric_distance,
    coverage_within,
    reference_from_estimate,
    reference_from_scalar,
)
from .walk import (
    BoundaryEstimate,
    EdgeConfig,
    Termination,
    run_edge,
)

__version__ = "0.1.0"

__all__ = [
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
