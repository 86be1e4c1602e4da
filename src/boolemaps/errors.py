"""Exception and warning types shared across the package."""


class SingularInputError(ValueError):
    """Input sits on (or numerically at) a singularity of the map in use."""


class OrbitTruncationError(RuntimeError):
    """An orbit landed inside the pole guard and could not be continued."""

    def __init__(self, message: str, last_index: int):
        super().__init__(message)
        self.last_index = last_index


class PoleGuardError(RuntimeError):
    """Too many Monte Carlo samples landed inside the pole guard to drop them."""


class QuadratureError(RuntimeError):
    """Quadrature did not reach the requested accuracy."""


class FitConvergenceError(RuntimeError):
    """Iterative likelihood fit failed to meet its gradient tolerance."""


class GridResolutionWarning(UserWarning):
    """A density grid is too coarse to account for its mass reliably."""
