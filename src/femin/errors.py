"""Exception and warning types shared across the package."""


class FeminError(Exception):
    """Base class for domain errors raised by this package."""


class DimensionMismatch(FeminError, ValueError):
    """Vectors that must share an alphabet have different lengths."""


class SupportViolation(FeminError, ValueError):
    """q places mass on a symbol where the reference distribution has none."""


class NonPositivePrior(FeminError, ValueError):
    """A prior that must be strictly positive has a zero entry."""


class AlphabetTooLarge(FeminError, ValueError):
    """Brute-force enumeration requested for an alphabet it cannot handle."""


class Infeasible(FeminError, ValueError):
    """Moment targets lie outside the feasible set."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotConverged(FeminError, RuntimeError):
    """Iterative solver exhausted its budget before reaching tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class EmptyData(FeminError, ValueError):
    """An observation set that must be nonempty is empty."""


class NonFinite(FeminError, ArithmeticError):
    """A numerical routine produced non-finite parameters or values."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ZeroCoordinate(FeminError, ValueError):
    """A multiplicative update was asked to start from a zero coordinate."""


class DegenerateComponentWarning(UserWarning):
    """A mixture component received (numerically) no responsibility mass."""


class FlooringWarning(UserWarning):
    """Iterate coordinates were floored to keep log-weights representable."""
