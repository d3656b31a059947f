"""Batched adaptive panel quadrature for the improper entropy integrals.

Integrands decay under a Gaussian envelope, so improper integrals are
truncated where the remainder is far below tolerance.  [a, b] is split into
panels at the caller's breakpoints; each round evaluates every open
panel's nodes in one vectorized call and keeps its 32-node Gauss-Legendre
value, with the 16-node difference as error estimate.  A panel is accepted
when the estimate fits half the budget max(abs_tol, rel_tol * |I|) times
the larger of its length share and 1/MAX_SUBDIVISIONS, so the estimates sum
to at most the budget; the rest are bisected.  The length share refines
log singularities at zeros of a density; the count share stops panels
whose estimate is negligible, such as those ruled by integrand roundoff.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import QuadratureConvergenceError

__all__ = ["QuadratureSpec", "DEFAULT_QUADRATURE", "integrate", "entropy_integral"]

#: densities below this value contribute 0 to entropy integrands (continuity
#: of x ln x at 0, and robustness against roundoff noise near touching
#: zeros); kept well above the ~1e-16 evaluation noise floor but small
#: enough that the discarded tail mass biases entropies by < 1e-11
ENTROPY_CLIP = 1e-14

#: most panels one integral may split into
MAX_SUBDIVISIONS = 2000

#: floor of a panel's error estimate, relative to its integral of |f|: two
#: rules that round alike would otherwise report 0 and pass any tolerance
ROUNDOFF = np.finfo(float).eps

#: most abscissae passed to the integrand in one call; bounds the memory of
#: one evaluation: a radial Wigner call holds a Laguerre table of up to
#: fock.N_MAX + 1 rows of this many doubles (8.4 MB)
EVAL_CHUNK = 4096

_COARSE_NODES, _COARSE_WEIGHTS = np.polynomial.legendre.leggauss(16)
_FINE_NODES, _FINE_WEIGHTS = np.polynomial.legendre.leggauss(32)
_NODES = np.concatenate([_COARSE_NODES, _FINE_NODES])

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance controls for the improper integrals."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("quadrature tolerances must be positive and finite")


DEFAULT_QUADRATURE = QuadratureSpec()


def _panel_rules(func, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fine Gauss-Legendre value and error estimate of every panel [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES
    flat = x.ravel()
    f = np.concatenate([np.asarray(func(flat[i:i + EVAL_CHUNK]), dtype=float)
                        for i in range(0, flat.size, EVAL_CHUNK)]).reshape(x.shape)
    coarse = half * (f[:, :_COARSE_NODES.size] @ _COARSE_WEIGHTS)
    fine = half * (f[:, _COARSE_NODES.size:] @ _FINE_WEIGHTS)
    roundoff = ROUNDOFF * half * (np.abs(f[:, _COARSE_NODES.size:]) @ _FINE_WEIGHTS)
    return fine, np.maximum(np.abs(fine - coarse), roundoff)


def integrate(func, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE,
              points=None) -> float:
    """Adaptive panel quadrature of ``func`` over [a, b] at the spec's tolerances.

    ``func`` maps a 1-D array of abscissae to an array of values; each round
    calls it once per EVAL_CHUNK abscissae.  The initial panels are
    split at ``points`` (awkward abscissae) inside (a, b).  Raises
    QuadratureConvergenceError when more than MAX_SUBDIVISIONS are needed.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"integration needs finite limits a < b, got [{a}, {b}]")
    inner = np.ravel(points) if points is not None else []
    edges = np.unique(np.clip(np.concatenate([[a], inner, [b]]), a, b))
    lo, hi = edges[:-1], edges[1:]
    panels = lo.size
    evaluations = 0
    accepted: list[float] = []
    error = 0.0
    while lo.size:
        fine, err = _panel_rules(func, lo, hi)
        evaluations += lo.size * _NODES.size
        budget = max(spec.abs_tol, spec.rel_tol * abs(math.fsum(accepted + fine.tolist())))
        share = 0.5 * budget * np.maximum((hi - lo) / (b - a), 1.0 / MAX_SUBDIVISIONS)
        done = err <= share
        accepted.extend(fine[done].tolist())
        error += float(np.sum(err[done]))
        lo, hi = lo[~done], hi[~done]
        panels += lo.size
        if panels > MAX_SUBDIVISIONS:
            raise QuadratureConvergenceError(
                f"tolerance {budget:.3e} needs more than {MAX_SUBDIVISIONS} panels"
            )
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("integral over [%g, %g]: %d panels, %d evaluations, "
                   "error estimate %.3e", a, b, panels, evaluations, error)
    return math.fsum(accepted)


def entropy_integral(
    density,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    weight: float = 1.0,
    points=None,
) -> float:
    """-weight * integral of rho ln rho over [a, b].

    ``density`` maps an array of abscissae to an array of values; values at
    or below ENTROPY_CLIP are treated as exact zeros (x ln x -> 0).
    ``points`` may list zeros of the density, where the integrand has
    integrable log singularities.
    """

    def integrand(x):
        rho = density(x)
        return np.where(rho <= ENTROPY_CLIP, 0.0, rho * np.log(np.maximum(rho, ENTROPY_CLIP)))

    return -weight * integrate(integrand, a, b, spec, points=points)
