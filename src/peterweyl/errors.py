"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ConsistencyError(ArithmeticError):
    """Raised when a numeric self-check fails: the CLI raises it for a
    non-finite value in its output, before the output is opened."""
