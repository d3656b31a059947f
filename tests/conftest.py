"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: exact
rational combinatorics for the beam-splitter coefficients, scipy special
functions for polynomials, and brute-force summation for integrals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from wigentropy.mixtures import PhotonMixture


def exact_sigma_probs(m: int, n: int) -> list[Fraction]:
    """Beam-splitter output coefficients as exact rationals.

    Independent reference implementation of the closed-form triple sum,
    kept in unbounded integer arithmetic.
    """
    denom = math.factorial(m) * math.factorial(n) * 2 ** (m + n)
    out = []
    for z in range(m + n + 1):
        s = sum(
            (-1) ** i * math.comb(m, i) * math.comb(n, z - i)
            for i in range(max(0, z - n), min(z, m) + 1)
        )
        num = math.factorial(z) * math.factorial(m + n - z) * s * s
        out.append(Fraction(num, denom))
    return out


def exact_split_probs(m: int, n: int, eta: Fraction) -> list[Fraction]:
    """Mode-A photon distribution of a beam splitter fed |m, n>, as exact rationals.

    Expands (sqrt(eta) a+ - sqrt(1-eta) b+)**m (sqrt(1-eta) a+ + sqrt(eta) b+)**n
    in integers: with eta = p/q the amplitude of |k, m+n-k> is an integer
    sum s_k times a common power of sqrt(eta) and sqrt(1-eta), so its square
    p**e (q-p)**f s_k**2 k! (m+n-k)! / (q**(m+n) m! n!) is rational.
    """
    p, q = eta.numerator, eta.denominator
    total = m + n
    scale = q ** total * math.factorial(m) * math.factorial(n)
    out = []
    for k in range(total + 1):
        lo, hi = max(0, k - n), min(k, m)
        s = sum(
            (-1) ** (m - i) * math.comb(m, i) * math.comb(n, k - i)
            * p ** (i - lo) * (q - p) ** (hi - i)
            for i in range(lo, hi + 1)
        )
        num = (p ** (n - k + 2 * lo) * (q - p) ** (m + k - 2 * hi) * s * s
               * math.factorial(k) * math.factorial(total - k))
        out.append(Fraction(num, scale))
    return out


def random_passive_mixture(rng: np.random.Generator, max_len: int) -> PhotonMixture:
    length = int(rng.integers(1, max_len + 1))
    return PhotonMixture(np.sort(rng.dirichlet(np.ones(length)))[::-1].copy())


def fock_mixture(n: int) -> PhotonMixture:
    probs = np.zeros(n + 1)
    probs[n] = 1.0
    return PhotonMixture(probs)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
