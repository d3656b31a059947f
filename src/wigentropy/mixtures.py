"""Phase-invariant states as photon-number probability vectors.

A rotation-invariant state is a mixture of Fock states and is fully
described by its probability vector p.  This module covers physicality,
passivity, the decomposition of passive states into equiprobable
low-energy mixtures, and the Fock-diagonal coefficients of the states a
balanced beam splitter produces from a pair of number states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NotPassiveError, TruncationError
from .fock import N_MAX, check_photon_number

__all__ = [
    "PhotonMixture",
    "PassiveDecomposition",
    "SigmaState",
    "NORMALIZATION_TOL",
    "is_passive",
    "extremal_passive",
    "passive_decompose",
    "sigma_coefficients",
    "extremal_passive_from_sigmas",
    "thermal_mixture",
]

#: rejection tolerance on sum(p) - 1; inputs beyond it are refused rather
#: than silently renormalized
NORMALIZATION_TOL = 1e-12

#: tail mass a truncated thermal distribution may leave out
THERMAL_TAIL_TOL = 1e-13
#: largest thermal mean whose THERMAL_TAIL_TOL cut ends within N_MAX photons
THERMAL_MAX_MEAN = THERMAL_TAIL_TOL ** (1.0 / N_MAX) / (1.0 - THERMAL_TAIL_TOL ** (1.0 / N_MAX))


def _holds_bool(values) -> bool:
    """Whether any element is a boolean, which numpy casts to a number beside numbers."""
    return any(isinstance(x, (bool, np.bool_)) for x in np.array(values, dtype=object).flat)


def _real_array(values, what: str) -> np.ndarray:
    """A read-only float copy of values, which must be real numbers: not
    booleans, strings, complex numbers or objects.  An ndarray's dtype kind
    shows its booleans, so only other input is walked element by element."""
    arr = np.array(values)
    if arr.dtype.kind not in "iuf" or (not isinstance(values, np.ndarray)
                                       and _holds_bool(values)):
        raise ValueError(f"{what} must be real numbers, not booleans, got {arr.dtype} {arr.shape}")
    arr = arr.astype(float, copy=False)
    arr.flags.writeable = False
    return arr


def _distribution(values, what: str) -> np.ndarray:
    """A read-only float copy of a probability vector: a non-empty 1-D array of
    finite, non-negative real numbers summing to 1 within NORMALIZATION_TOL.
    Bools, strings and nesting are refused."""
    arr = _real_array(values, what)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a flat sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    if np.any(arr < 0.0):
        raise ValueError(f"{what} must be non-negative")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"{what} sum to {total!r}, more than {NORMALIZATION_TOL} away from 1")
    return arr


@dataclass(frozen=True)
class PhotonMixture:
    """Photon-number probability vector of a phase-invariant state."""

    probs: np.ndarray

    def __init__(self, probs):
        arr = _distribution(probs, "photon-number probabilities")
        check_photon_number(arr.size - 1)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return int(self.probs.size)

    def __getitem__(self, k: int) -> float:
        return float(self.probs[k])

    @property
    def purity(self) -> float:
        """Tr rho**2 = sum p_k**2 for a Fock-diagonal state."""
        return float(np.dot(self.probs, self.probs))

    @property
    def mean_photons(self) -> float:
        return float(np.dot(np.arange(len(self)), self.probs))

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length)
        out[: len(self)] = self.probs
        return out


@dataclass(frozen=True)
class PassiveDecomposition:
    """Weights over the equiprobable low-energy mixtures."""

    weights: np.ndarray

    def __init__(self, weights):
        object.__setattr__(self, "weights", _distribution(weights, "decomposition weights"))

    def __len__(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class SigmaState:
    """Balanced beam-splitter output for Fock inputs m and n, in Fock form."""

    m: int
    n: int
    coeffs: PhotonMixture


def is_passive(p: PhotonMixture) -> bool:
    """True when the probabilities never increase, p_k >= p_{k+1} exactly."""
    probs = p.probs
    return bool((probs[:-1] >= probs[1:]).all())


def extremal_passive(n: int) -> PhotonMixture:
    """Equiprobable mixture of the Fock states 0..n."""
    check_photon_number(n)
    return PhotonMixture(np.full(n + 1, 1.0 / (n + 1)))


def passive_decompose(p: PhotonMixture) -> PassiveDecomposition:
    """Weights e_k = (k+1)(p_k - p_{k+1}) over the equiprobable mixtures.

    Recomposing sum_k e_k (equiprobable mixture of 0..k) gives p back;
    raises NotPassiveError when any probability increases.
    """
    if not is_passive(p):
        raise NotPassiveError("probabilities increase somewhere; state is not passive")
    probs = np.append(p.probs, 0.0)
    ks = np.arange(len(p), dtype=float)
    return PassiveDecomposition((ks + 1.0) * (probs[:-1] - probs[1:]))


def _sigma_numerator(m: int, n: int, z: int) -> int:
    # alternating binomial sum, squared: always a non-negative integer
    s = sum(
        (-1) ** i * math.comb(m, i) * math.comb(n, z - i)
        for i in range(max(0, z - n), min(z, m) + 1)
    )
    return math.factorial(z) * math.factorial(m + n - z) * s * s


def sigma_coefficients(m: int, n: int) -> SigmaState:
    """Fock-diagonal coefficients of the balanced beam-splitter output.

    Feeding m and n photons into a 50:50 beam splitter and tracing one
    output leaves a mixture over total photon numbers z = 0..m+n whose
    coefficient is

        z! (m+n-z)! / (m! n! 2**(m+n)) * (sum_i (-1)**i C(m,i) C(n,z-i))**2.

    The combinatorics are carried out in exact integer arithmetic and each
    coefficient is one int true division, which Python rounds correctly, so
    the vector is correctly rounded at any m+n up to fock.N_MAX.  Symmetric
    in (m, n) by construction.
    """
    check_photon_number(m)
    check_photon_number(n)
    # Python ints, so numpy integers neither wrap in the total nor meet the
    # factorials' unbounded ints in a shift
    m, n = int(m), int(n)
    check_photon_number(m + n)
    lo, hi = (m, n) if m <= n else (n, m)
    den = math.factorial(m) * math.factorial(n) << (m + n)
    coeffs = np.array([_sigma_numerator(lo, hi, z) / den for z in range(m + n + 1)])
    return SigmaState(m, n, PhotonMixture(coeffs))


def extremal_passive_from_sigmas(n: int) -> PhotonMixture:
    """Uniform average of the beam-splitter states with total photon number n.

    Averaging sigma(k, n-k) over k = 0..n reproduces the equiprobable
    mixture of the Fock states 0..n.
    """
    check_photon_number(n)
    acc = np.zeros(n + 1)
    for k in range(n + 1):
        acc += sigma_coefficients(k, n - k).coeffs.probs
    return PhotonMixture(acc / (n + 1))


def thermal_mixture(mean_photons: float) -> PhotonMixture:
    """Truncated geometric photon distribution of a thermal state.

    The cutoff is chosen so the discarded tail mass is below THERMAL_TAIL_TOL,
    which keeps the truncated vector an acceptable probability vector
    without renormalization.  Against the Gaussian closed forms the cut
    costs up to 4e-12 in the Wigner, Wehrl and marginal entropies and 1e-13
    at Renyi orders 2 to inf, but low orders weight up the missing far
    tail: 5e-7 at order 0.5 and 1.4e-4 at order 0.3.
    """
    if not mean_photons >= 0:
        raise ValueError("mean photon number must be non-negative")
    if mean_photons > THERMAL_MAX_MEAN:
        raise TruncationError(f"mean photon number {mean_photons!r} exceeds the largest "
                              f"supported {THERMAL_MAX_MEAN!r} (N_MAX = {N_MAX})")
    if mean_photons == 0:
        return PhotonMixture([1.0])
    q = mean_photons / (mean_photons + 1.0)
    length = max(2, int(math.ceil(math.log(THERMAL_TAIL_TOL) / math.log(q))) + 1)
    ks = np.arange(length)
    return PhotonMixture((1.0 - q) * q**ks)
