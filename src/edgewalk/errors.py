"""Exception hierarchy shared across the package.

Estimation routines raise rather than return sentinel values; the CLI maps
each class to a stable process exit code.
"""


class EdgewalkError(Exception):
    """Base class for all package errors."""


class InputError(EdgewalkError):
    """Bad user input: malformed files, invalid configuration values."""


class NoBoundaryFoundError(EdgewalkError):
    """The classifier appears to have a single label on the whole domain."""


class BudgetExhaustedError(EdgewalkError):
    """The query budget ran out before a usable result existed."""


class GeometricFailureError(EdgewalkError):
    """Internal geometric invariant broke during a walk."""


class CoincidentCentersError(GeometricFailureError):
    """Circle-circle intersection requested for (nearly) coincident centers."""


class NoForwardCandidateError(GeometricFailureError):
    """No candidate point lies strictly on the forward side of the walk."""


class FullPerimeterError(GeometricFailureError):
    """A rim episode went all the way round without finding a label change."""


class EmptyContourError(EdgewalkError):
    """A reference boundary was requested for a level set absent from the domain."""


class ReferenceResolutionError(InputError):
    """A reference boundary is too coarse for the run it is meant to score."""


class SolverError(EdgewalkError):
    """The linear program solver did not converge."""
