"""Exception taxonomy shared across the workbench."""


class SpanforgeError(Exception):
    """Base class for all workbench-specific errors."""


class SolverFailure(SpanforgeError):
    """A backend numerical routine did not converge."""


class InconsistentSystem(SpanforgeError):
    """A linear system has no solution under the working tolerance."""


class ZeroConstraint(SpanforgeError):
    """The hyperplane constraint vector is (numerically) zero."""


class NoPositiveWitness(SpanforgeError):
    """Requested a positive witness on an input the program rejects."""


class NoNegativeWitness(SpanforgeError):
    """Requested a negative witness on an input the program accepts."""


class SparseFormatError(SpanforgeError, ValueError):
    """An input matrix has more nonzeros in a column or row than a sparse
    compiled program's payload or row list holds."""
