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
    """
    t = np.asarray(t, dtype=float)
    envelope = np.exp(-0.5 * t)
    out = np.empty((nmax + 1,) + t.shape)
    out[0] = envelope
    if nmax >= 1:
        out[1] = (1.0 + d - t) * envelope
    for k in range(1, nmax):
        out[k + 1] = ((2 * k + 1 + d - t) * out[k] - (k + d) * out[k - 1]) / (k + 1)
    return out


def wavefunction_table(nmax: int, x) -> np.ndarray:
    """psi_0(x) ... psi_nmax(x) stacked along axis 0 for scalar or array x."""
    check_photon_number(nmax)
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax >= 1:
        out[1] = x * math.sqrt(2.0) * out[0]
    for k in range(2, nmax + 1):
        out[k] = x * math.sqrt(2.0 / k) * out[k - 1] - math.sqrt((k - 1) / k) * out[k - 2]
    return out


def wavefunction(n: int, x):
    """Wave function psi_n(x) of the n-th Fock state."""
    values = wavefunction_table(n, x)[n]
    return float(values) if np.isscalar(x) or np.asarray(x).ndim == 0 else values


def wigner_fock(n: int, x, p):
    """Wigner function W_n(x, p) of the n-th Fock state.

    Rotation invariant: depends on x, p only through x**2 + p**2.
    """
    check_photon_number(n)
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
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
        return probs @ (psi * psi)

    return entropy_integral(density, 0.0, cut, spec, weight=2.0, points=nodes[nodes >= 0.0])


@lru_cache(maxsize=None)
def marginal_entropy(n: int, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Shannon differential entropy of the n-th Fock state's position density.

    Satisfies the entropic uncertainty bound 2 h(rho_n) >= ln(pi) + 1; the
    vacuum saturates it with h(rho_0) = ln(pi e) / 2.
    """
    check_photon_number(n)
    return density_entropy(np.eye(n + 1)[n], spec)
