"""Exception types shared across the library."""


class LceError(ValueError):
    """Base class for all library errors."""


class DimensionMismatchError(LceError):
    """Operands live on lattices of different dimension."""


class BoxTooLargeError(LceError):
    """A requested dense box exceeds the configured cell cap."""


class TailToleranceError(LceError):
    """Truncation deficit exceeds the configured tail tolerance."""


class NotNormalizedError(LceError):
    """A p.m.f. required to be normalized is not."""


class DegenerateCovarianceError(LceError):
    """Covariance determinant is zero or negative where positivity is required."""


class SizeCapError(LceError):
    """Problem size exceeds a configured solver budget."""


class NumericalError(LceError, ArithmeticError):
    """A numerical routine failed to converge or produced an impossible value."""


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to converge within its budget."""
