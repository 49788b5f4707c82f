"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A matrix factorization failed to converge, a residual, objective or
    SVT input is not finite, or ``I + A^T A`` overflows; the CLI exits 3."""


class DegenerateInputError(ValueError):
    """An operation was asked for on an input it is undefined for (e.g. a zero matrix)."""


class FeasibilityError(ValueError):
    """The constraint X = AZ has no solution for the given pair (X, A)."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class UndefinedMetricError(ValueError):
    """A metric is undefined for the given input (e.g. AUC with one class)."""
