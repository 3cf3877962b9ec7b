"""Exception types shared across the library: every library error is an
:class:`LceError` (CLI exit code 2), and a numerical failure is its subclass
:class:`NumericalError` (exit code 3)."""


class LceError(ValueError):
    """Base class for all library errors."""


class NumericalError(LceError, ArithmeticError):
    """A numerical routine failed to converge or produced an impossible value."""
