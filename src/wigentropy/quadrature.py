"""Adaptive quadrature plumbing for the improper entropy integrals.

Everything integrable in this package decays under a Gaussian envelope,
so improper integrals are truncated at a generous finite cutoff and the
remainder is far below tolerance.  Integrands with integrable log
singularities (entropy integrands at zeros of the density) are left to
adaptive subdivision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .exceptions import QuadratureConvergenceError

__all__ = ["QuadratureSpec", "DEFAULT_QUADRATURE", "integrate", "entropy_integral"]

#: densities below this value contribute 0 to entropy integrands (continuity
#: of x ln x at 0, and robustness against roundoff noise near touching
#: zeros); kept well above the ~1e-16 evaluation noise floor but small
#: enough that the discarded tail mass biases entropies by < 1e-11
ENTROPY_CLIP = 1e-14

#: subdivision budget of one adaptive integral
MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance controls for the improper integrals."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("quadrature tolerances must be positive and finite")


DEFAULT_QUADRATURE = QuadratureSpec()


def integrate(func, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE,
              points=None) -> float:
    """Adaptive quadrature of ``func`` over [a, b] at the spec's tolerances.

    ``points`` marks known awkward abscissae (integrable singularities) for
    the subdivision to start from.  Raises QuadratureConvergenceError when
    the budget is exhausted without reaching tolerance.
    """
    result = quad(
        func,
        a,
        b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=MAX_SUBDIVISIONS,
        full_output=1,
        points=points if points is not None and len(points) else None,
    )
    value, abserr = result[0], result[1]
    budget = 10.0 * max(spec.abs_tol, spec.rel_tol * abs(value))
    if len(result) > 3 and abserr > budget:
        raise QuadratureConvergenceError(
            f"quadrature error estimate {abserr:.3e} exceeds budget {budget:.3e}: "
            f"{result[3]}"
        )
    return value


def entropy_integral(
    density,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    weight: float = 1.0,
    points=None,
) -> float:
    """-weight * integral of rho ln rho over [a, b].

    ``density`` is evaluated pointwise; values at or below ENTROPY_CLIP are
    treated as exact zeros (x ln x -> 0).  ``points`` may list zeros of the
    density, where the integrand has integrable log singularities.
    """

    def integrand(x):
        rho = density(x)
        if rho <= ENTROPY_CLIP:
            return 0.0
        return rho * math.log(rho)

    return -weight * integrate(integrand, a, b, spec, points=points)
