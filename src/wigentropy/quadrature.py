"""Batched adaptive panel quadrature for the improper entropy integrals.

Integrands carry their mass under a unit-scale Gaussian envelope that
starts at the left limit, so improper integrals are truncated where the
remainder is far below tolerance, and [a, b] starts out split on a dyadic
mesh graded toward a, down to about unit width, and toward the caller's
breakpoints: the panels that bisection of [a, b] would always reach.  Each
round evaluates every open panel's nodes in one vectorized call and keeps
its 32-node Gauss-Legendre value, with the 16-node difference as error
estimate.  The budget of an integral I is tol * max(1, |I|), absolute
below |I| = 1 and relative above, with |I| read from the running sum.  A
panel is accepted when the estimate fits half the budget times the larger
of its length share and 1/MAX_SUBDIVISIONS, so the estimates sum to at
most the budget; the rest are bisected, except the panel [a, a + w],
which is cut at a + w 2**-k, k <= POINT_DEPTH, in one round: a density
that vanishes at a (W at the origin for sigma(m, n), m != n) makes
x ln x behave like u**d ln u there, which halving refines one level a round.
The length share refines log singularities at zeros of a density; the
count share stops panels whose estimate is negligible, such as those
ruled by integrand roundoff.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import QuadratureConvergenceError

__all__ = ["QuadratureSpec", "DEFAULT_QUADRATURE", "integrate", "entropy_integral"]

#: smallest normal double; the log of a positive density is taken at least here
TINY = np.finfo(float).tiny

#: most panels one integral may split into
MAX_SUBDIVISIONS = 2000

#: floor of a panel's error estimate, relative to its integral of |f|: two
#: rules that round alike would otherwise report 0 and pass any tolerance
ROUNDOFF = np.finfo(float).eps

#: most abscissae passed to the integrand in one call; bounds the memory of
#: one evaluation: a radial Wigner call holds a Laguerre table of up to
#: fock.N_MAX + 1 rows of this many doubles (8.4 MB)
EVAL_CHUNK = 4096

#: halvings toward each caller's point on both sides, and toward a, as
#: bisection toward a log singularity makes them; at 6, sigma(n, n),
#: n = 7..9, took two rounds
POINT_DEPTH = 7

_COARSE_NODES, _COARSE_WEIGHTS = np.polynomial.legendre.leggauss(16)
_FINE_NODES, _FINE_WEIGHTS = np.polynomial.legendre.leggauss(32)
_NODES = np.concatenate([_COARSE_NODES, _FINE_NODES])

#: 2**-k for k = 1 ... POINT_DEPTH: the graded offsets around a caller's point,
#: as fractions of its gap to the next edge
_GRADED = np.exp2(-np.arange(1, POINT_DEPTH + 1))
#: 2**-k for k = POINT_DEPTH ... 1: the cuts of a failing panel [a, a + w],
#: as fractions of w
_FIRST_CUTS = _GRADED[::-1].copy()

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance of the improper integrals: error budget tol * max(1, |I|)."""

    tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"quadrature tolerance must be positive and finite, not {self.tol}")


DEFAULT_QUADRATURE = QuadratureSpec()


def _distinct(x: np.ndarray) -> np.ndarray:
    """x sorted, without repeats: np.unique's values, without the numpy.ma
    import (~5 ms) np.unique makes on its first call."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _panel_rules(func, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fine Gauss-Legendre value and error estimate of every panel [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    x = np.multiply.outer(half, _NODES)
    x += (0.5 * (hi + lo))[:, None]
    flat = x.reshape(-1)
    if flat.size <= EVAL_CHUNK:
        f = np.asarray(func(flat), dtype=float)
    else:
        f = np.concatenate([np.asarray(func(flat[i:i + EVAL_CHUNK]), dtype=float)
                            for i in range(0, flat.size, EVAL_CHUNK)])
    f = f.reshape(x.shape)
    fine_f = f[:, _COARSE_NODES.size:]
    coarse = half * (f[:, :_COARSE_NODES.size] @ _COARSE_WEIGHTS)
    fine = half * (fine_f @ _FINE_WEIGHTS)
    roundoff = ROUNDOFF * half * (np.abs(fine_f) @ _FINE_WEIGHTS)
    err = np.subtract(fine, coarse, coarse)
    np.abs(err, err)
    return fine, np.maximum(err, roundoff, out=err)


def integrate(func, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE,
              points=None) -> float:
    """Adaptive panel quadrature of ``func`` over [a, b] within spec.tol * max(1, |I|).

    ``func`` maps a 1-D array of abscissae to an array of values; each round
    calls it once per EVAL_CHUNK abscissae.  The initial panels end at
    a + (b - a) 2**-k for k = 1 ... max(1, ceil(log2(b - a))), at ``points``
    (awkward abscissae) inside (a, b), and at c -+ g 2**-k, k <= POINT_DEPTH,
    around each such c, g being its gap to the next edge on that side.  The
    mesh assumes that ``func`` carries its mass under a unit-scale envelope
    starting at a; other integrands stay correct but may take extra rounds.
    A failing panel [a, a + w] is cut at a + w 2**-k, k <= POINT_DEPTH, the
    others are halved.  Raises QuadratureConvergenceError past
    MAX_SUBDIVISIONS panels.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"integration needs finite limits a < b, got [{a}, {b}]")
    levels = max(1, math.ceil(math.log2(b - a)))
    edges = np.array([a] + [a + (b - a) * 2.0 ** -k for k in range(levels, 0, -1)] + [b])
    if points is not None:
        inner = np.ravel(points)
        inner = inner[(inner > a) & (inner < b)]
        if inner.size:
            edges = _distinct(np.concatenate([edges, inner]))
            at = np.searchsorted(edges, inner)
            gaps = np.stack([edges[at - 1], edges[at + 1]]) - inner
            graded = inner[:, None] + gaps[..., None] * _GRADED
            edges = _distinct(np.concatenate([edges, graded.ravel()]))
    lo, hi = edges[:-1], edges[1:]
    panels = lo.size
    rounds = evaluations = 0
    accepted: list[float] = []
    debug = _log.isEnabledFor(logging.DEBUG)
    error = 0.0
    while True:
        fine, err = _panel_rules(func, lo, hi)
        rounds += 1
        evaluations += lo.size * _NODES.size
        total = math.fsum(accepted + fine.tolist())
        budget = spec.tol * max(1.0, abs(total))
        share = hi - lo
        share /= b - a
        np.maximum(share, 1.0 / MAX_SUBDIVISIONS, out=share)
        share *= 0.5 * budget
        done = err <= share
        if done.all():  # nothing left to split: the sum is the integral
            if debug:
                error += float(np.sum(err))
            break
        accepted.extend(fine[done].tolist())
        if debug:
            error += float(np.sum(err[done]))
        lo, hi = lo[~done], hi[~done]
        failed = lo.size
        mid = 0.5 * (lo + hi)
        if lo[0] == a:  # the panel at a is always first
            cuts = a + (hi[0] - a) * _FIRST_CUTS
            lo = np.concatenate([[a], cuts, lo[1:], mid[1:]])
            hi = np.concatenate([cuts, hi[:1], mid[1:], hi[1:]])
        else:
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        panels += lo.size - failed
        if panels > MAX_SUBDIVISIONS:
            raise QuadratureConvergenceError(
                f"tolerance {spec.tol!r} (error budget {budget:.3e}) needs more than "
                f"{MAX_SUBDIVISIONS} panels"
            )
    if debug:
        _log.debug("integral over [%g, %g]: %d rounds, %d panels, %d evaluations, "
                   "error estimate %.3e", a, b, rounds, panels, evaluations, error)
    return total


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
    or below 0 (roundoff near a zero) are exact zeros (x ln x -> 0), and the
    log of a positive value is taken at least at TINY, so no tail is cut.
    ``points`` may list zeros of the density, where the integrand has
    integrable log singularities.
    """

    def integrand(x):
        rho = density(x)
        out = np.maximum(rho, TINY)
        np.log(out, out)
        out *= rho
        out[rho <= 0.0] = 0.0
        return out

    return -weight * integrate(integrand, a, b, spec, points=points)
