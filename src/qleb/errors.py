"""Exception taxonomy shared across the package."""


class QlebError(Exception):
    """Base class for all package-specific errors."""


class InvalidMatrixError(QlebError, ValueError):
    """Input is not a usable matrix (wrong type, non-finite entries)."""


class NonSquareError(InvalidMatrixError):
    """Input matrix is not square."""


class NotHermitianError(QlebError, ValueError):
    """Hermiticity violation exceeds the stated tolerance."""


class NotPositiveError(QlebError, ValueError):
    """An eigenvalue is more negative than the rank tolerance allows."""


class SingularInputError(QlebError, ValueError):
    """Operation requires a strictly positive operator."""


class ZeroOperatorError(QlebError, ValueError):
    """Operation requires a nonzero operator."""


class EigenConvergenceError(QlebError, RuntimeError):
    """The eigensolver failed to converge."""


class DimensionMismatchError(QlebError, ValueError):
    """Operands or query vectors have incompatible dimensions."""


class DimensionTooLargeError(QlebError, ValueError):
    """Requested dense tensor-power computation exceeds the size cap."""


class MutuallySingularError(QlebError, ValueError):
    """The pair is mutually singular, so the requested split is empty."""


class NotAbsolutelyContinuousError(QlebError, ValueError):
    """Absolute continuity precondition fails."""


class NotCenteredError(QlebError, ValueError):
    """Collective observables must have zero mean in the reference state."""


class SupportViolationError(QlebError, RuntimeError):
    """A shifted state fails to dominate the reference state's support."""

    def __init__(self, message: str, *, n: int | None = None, theta=None):
        super().__init__(message)
        self.n = n
        self.theta = theta


class DerivativeLeavesSupportError(QlebError, RuntimeError):
    """The state derivative has weight outside the reference support."""


class DerivativeUnstableError(QlebError, RuntimeError):
    """The numerical derivative violates basic consistency checks."""


class QueryOutOfSafeRangeError(QlebError, ValueError):
    """Per-site trace strayed too far from 1 for a safe n-th power."""


class UnreachableOverlapError(QlebError, ValueError):
    """A rotation cannot bring the overlap of two operators to the target."""


class InvalidRanksError(QlebError, ValueError):
    """Requested ranks are not realizable at the given dimension."""


class NotUnitError(QlebError, ValueError):
    """Vector is not normalized."""
