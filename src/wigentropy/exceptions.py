"""Exception types shared across the package."""


class WigentropyError(Exception):
    """Base class for package-specific failures."""


class QuadratureConvergenceError(WigentropyError):
    """Adaptive quadrature could not reach the requested tolerance."""


class NotWignerPositiveError(WigentropyError):
    """The Wigner function is negative somewhere, so its entropy is undefined.

    Carries the offending minimum and its radius so callers can report
    where positivity fails.
    """

    def __init__(self, message, min_value=None, argmin_r=None):
        super().__init__(message)
        self.min_value = min_value
        self.argmin_r = argmin_r


class NotPassiveError(WigentropyError):
    """Photon-number probabilities are not decreasing."""


class NonSymplecticError(WigentropyError):
    """Matrix does not preserve the symplectic form."""


class GridMismatchError(WigentropyError):
    """Phase-space grids have incompatible extent or resolution."""


class NegativeGridError(WigentropyError):
    """Grid values are too negative to be treated as a probability density."""


class TruncationError(WigentropyError, ValueError):
    """A photon number above fock.N_MAX; a ValueError too, like other bad input."""
