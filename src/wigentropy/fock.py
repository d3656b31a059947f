"""Wave functions, Wigner functions and marginal entropies of Fock states.

The wave function of the n-th number state is

    psi_n(x) = pi**(-1/4) 2**(-n/2) (n!)**(-1/2) H_n(x) exp(-x**2/2)

and its Wigner function is

    W_n(x, p) = (1/pi) (-1)**n L_n(2 x**2 + 2 p**2) exp(-x**2 - p**2).

Wave functions are evaluated through the normalized Hermite-function
recurrence psi_k = x sqrt(2/k) psi_{k-1} - sqrt((k-1)/k) psi_{k-2}, which
is algebraically identical to the formula above but never leaves the
bounded range of the functions themselves.  Wigner functions, of single
Fock states and (in :mod:`positivity`) of their mixtures, come from the
damped Laguerre table L_k(t) exp(-t/2), built by the Laguerre recurrence
with the envelope folded into its first two rows.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .exceptions import TruncationError
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, entropy_integral

__all__ = [
    "N_MAX",
    "check_photon_number",
    "laguerre_scaled_all",
    "wavefunction",
    "wavefunction_table",
    "wigner_fock",
    "marginal_density",
    "marginal_entropy",
    "density_entropy",
    "tail_cutoff",
]

#: largest photon number the package accepts (normalization factors for
#: larger n are handled in log space nowhere, so keep a hard guard)
N_MAX = 256

#: psi_0(0), and the Hermite-function recurrence's factors sqrt(2/k) and
#: sqrt((k-1)/k) at k = 1..N_MAX (k = 0 unused)
_PSI_0 = math.pi ** -0.25
_RAISE = [0.0] + [math.sqrt(2.0 / k) for k in range(1, N_MAX + 1)]
_LOWER = [0.0] + [math.sqrt((k - 1) / k) for k in range(1, N_MAX + 1)]


def check_photon_number(n: int) -> None:
    """The one guard of the photon-number limit: ValueError below 0,
    TruncationError above N_MAX."""
    if n < 0:
        raise ValueError(f"photon number {n} must be non-negative")
    if n > N_MAX:
        raise TruncationError(f"photon number {n} exceeds N_MAX = {N_MAX}")


def tail_cutoff(n: int) -> float:
    """Integration half-width for the n-th marginal.

    Past the classical turning point sqrt(2n+1) the density decays like a
    Gaussian; 12 extra units push the remainder below 1e-14 for n <= N_MAX.
    """
    return math.sqrt(2 * n + 1) + 12.0


def laguerre_scaled_all(nmax: int, t, d: int = 0) -> np.ndarray:
    """Gaussian-damped Laguerre values  L_k^(d)(t) exp(-t/2)  for k = 0..nmax.

    These satisfy the same recurrence as L_k^(d) and are bounded by
    C(k + d, k) for t >= 0 (by 1 for the ordinary polynomials, d = 0),
    which keeps radial Wigner evaluations overflow-free at photon numbers
    where the raw polynomials would exceed double range.

    Row k + 1 is ((2k + 1 + d - t) L_k - (k + d) L_{k-1}) / (k + 1), formed
    in its own row with one work row for (k + d) L_{k-1}: every
    operation rounds in the recurrence's order, so the table is bit for bit
    that of one temporary array per operation, without the temporaries.
    """
    t = np.asarray(t, dtype=float)
    flat = t if t.ndim == 1 else t.reshape(-1)
    out = np.empty((nmax + 1, flat.size))
    prev = out[0]
    np.multiply(flat, -0.5, prev)
    np.exp(prev, prev)
    if nmax >= 1:
        cur = out[1]
        np.subtract(1.0 + d, flat, cur)
        np.multiply(cur, prev, cur)
        if nmax >= 2:
            work = np.empty(flat.size)
            for k in range(1, nmax):
                row = out[k + 1]
                np.subtract(2.0 * k + 1.0 + d, flat, row)
                np.multiply(row, cur, row)
                np.multiply(prev, float(k + d), work)
                np.subtract(row, work, row)
                np.divide(row, float(k + 1), row)
                prev, cur = cur, row
    return out if t.ndim == 1 else out.reshape((nmax + 1,) + t.shape)


def wavefunction_table(nmax: int, x) -> np.ndarray:
    """psi_0(x) ... psi_nmax(x) stacked along axis 0 for scalar or array x.

    Row k is x sqrt(2/k) psi_{k-1} - sqrt((k-1)/k) psi_{k-2}, formed in its
    own row with one work row for the second term: every operation
    rounds in the recurrence's order, so the table is bit for bit that of
    one temporary array per operation, without the temporaries.
    """
    check_photon_number(nmax)
    x = np.asarray(x, dtype=float)
    flat = x if x.ndim == 1 else x.reshape(-1)
    out = np.empty((nmax + 1, flat.size))
    prev = out[0]
    np.multiply(flat, -0.5, prev)
    np.multiply(prev, flat, prev)
    np.exp(prev, prev)
    np.multiply(prev, _PSI_0, prev)
    if nmax >= 1:
        cur = out[1]
        np.multiply(flat, _RAISE[1], cur)
        np.multiply(cur, prev, cur)
        if nmax >= 2:
            work = np.empty(flat.size)
            for k in range(2, nmax + 1):
                row = out[k]
                np.multiply(flat, _RAISE[k], row)
                np.multiply(row, cur, row)
                np.multiply(prev, _LOWER[k], work)
                np.subtract(row, work, row)
                prev, cur = cur, row
    return out if x.ndim == 1 else out.reshape((nmax + 1,) + x.shape)


def wavefunction(n: int, x):
    """Wave function psi_n(x) of the n-th Fock state."""
    values = wavefunction_table(n, x)[n]
    return float(values) if np.isscalar(x) or np.asarray(x).ndim == 0 else values


def wigner_fock(n: int, x, p):
    """Wigner function W_n(x, p) of the n-th Fock state.

    Rotation invariant: depends on x, p only through x**2 + p**2.  Raises
    ValueError at a non-finite x or p.
    """
    check_photon_number(n)
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise ValueError("phase-space coordinates must be finite")
    t = 2.0 * (x * x + p * p)
    values = laguerre_scaled_all(n, t)[n]
    result = (-1.0) ** n * values / math.pi
    return float(result) if result.ndim == 0 else result


def marginal_density(n: int, x):
    """Position density rho_n(x) = psi_n(x)**2."""
    psi = wavefunction(n, x)
    return psi * psi


def density_entropy(probs, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Entropy of the position density sum_k probs[k] psi_k(x)**2.

    The density is even, so this is twice the integral over [0, tail_cutoff]
    of the highest photon number.  A Fock state's density vanishes at its
    wave function's nodes, a log singularity of the integrand, so the mesh
    is graded toward the non-negative ones; a mixture's only dips there.
    """
    probs = np.asarray(probs, dtype=float)
    nmax = probs.size - 1
    cut = tail_cutoff(nmax)
    (held,) = np.nonzero(probs)
    pure = held.size == 1 and held[0] > 0
    nodes = np.polynomial.hermite.hermgauss(held[0])[0] if pure else np.empty(0)

    def density(x):
        psi = wavefunction_table(nmax, x)
        psi *= psi
        return probs @ psi

    return entropy_integral(density, 0.0, cut, spec, weight=2.0, points=nodes[nodes >= 0.0])


@lru_cache(maxsize=None)
def marginal_entropy(n: int, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Shannon differential entropy of the n-th Fock state's position density.

    Satisfies the entropic uncertainty bound 2 h(rho_n) >= ln(pi) + 1; the
    vacuum saturates it with h(rho_0) = ln(pi e) / 2.
    """
    check_photon_number(n)
    return density_entropy(np.eye(n + 1)[n], spec)
