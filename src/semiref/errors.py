"""Exception types shared across the package."""

__all__ = ["SemirefError", "DomainError", "ConvergenceError"]


class SemirefError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SemirefError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(SemirefError, RuntimeError):
    """An iterative scheme failed to reach its tolerance.

    Carries the best available estimate so callers can degrade gracefully.
    """

    def __init__(self, message, best=None, err_estimate=None):
        super().__init__(message)
        self.best = best
        self.err_estimate = err_estimate

