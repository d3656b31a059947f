"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: exact
rational combinatorics and an eigh-built d-matrix for the beam-splitter
coefficients, scipy special functions for polynomials, and brute-force
summation for integrals.  The
positivity references are the exception: they pin the package's numbers
bit for bit to a formulation through numpy.polynomial's Laguerre routines.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.laguerre import lagder, lagroots, lagsub, lagtrim

from wigentropy import positivity
from wigentropy.fock import N_MAX, laguerre_scaled_all
from wigentropy.mixtures import (
    PhotonMixture,
    extremal_passive,
    sigma_coefficients,
    thermal_mixture,
)
from wigentropy.positivity import (
    PositivityReport,
    extremal_arc_point,
    radial_cutoff,
    two_photon_mixture,
)


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



def reference_split_probabilities(total: int, eta: float) -> np.ndarray:
    """P[k, a] = |d^{total/2}_{ka}(beta)|**2 with cos(beta/2)**2 = eta.

    On the total-photon subspace, basis |a, total - a>, the splitter is the
    spin-total/2 rotation exp(-i beta J_y), so column a is the mode-A photon
    distribution of the input |a, total - a> (Campos, Saleh & Teich, PRA 40,
    1371 (1989)).  d = V exp(-i beta Lambda) V^H from eigh of the tridiagonal
    J_y stays accurate at any total (Feng, Wang, Yang & Jin, PRE 92, 043307
    (2015)).  J_y = D J_x D^H with D = diag((-i)**a) leaves |d| unchanged, so
    the real symmetric J_x is diagonalized instead.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmittance must lie in [0, 1]")
    a = np.arange(1, total + 1)
    ladder = 0.5 * np.sqrt(a * (total + 1.0 - a))  # <a-1| J_x |a>
    lam, v = np.linalg.eigh(np.diag(ladder, 1) + np.diag(ladder, -1))
    d = (v * np.exp(-2j * math.acos(math.sqrt(eta)) * lam)) @ v.T
    return d.real ** 2 + d.imag ** 2


def outer_dip_mixture() -> PhotonMixture:
    """sigma(64,64) with 1e-4 of probability moved from p_128 to p_127: W dips
    to -3.28e-7 at r = 15.32, near the outer end of the classical range."""
    probs = sigma_coefficients(64, 64).coeffs.probs.copy()
    probs[128] -= 1e-4
    probs[127] += 1e-4
    return PhotonMixture(probs)


def fock_mixture(n: int) -> PhotonMixture:
    probs = np.zeros(n + 1)
    probs[n] = 1.0
    return PhotonMixture(probs)


def reference_signed_coeffs(p: PhotonMixture) -> np.ndarray:
    return p.probs * ((-1.0) ** np.arange(len(p)))


def reference_laguerre_scaled_all(nmax: int, t, d: int = 0) -> np.ndarray:
    """The damped Laguerre table by the allocating recurrence, one
    temporary per operation: fock.laguerre_scaled_all must equal it bit for bit."""
    t = np.asarray(t, dtype=float)
    envelope = np.exp(-0.5 * t)
    out = np.empty((nmax + 1,) + t.shape)
    out[0] = envelope
    if nmax >= 1:
        out[1] = (1.0 + d - t) * envelope
    for k in range(1, nmax):
        out[k + 1] = ((2 * k + 1 + d - t) * out[k] - (k + d) * out[k - 1]) / (k + 1)
    return out


def reference_wavefunction_table(nmax: int, x) -> np.ndarray:
    """psi_0(x) ... psi_nmax(x) by the allocating recurrence, one temporary
    per operation: fock.wavefunction_table must equal it bit for bit."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax >= 1:
        out[1] = x * math.sqrt(2.0) * out[0]
    for k in range(2, nmax + 1):
        out[k] = x * math.sqrt(2.0 / k) * out[k - 1] - math.sqrt((k - 1) / k) * out[k - 2]
    return out


def reference_radial_wigner(p: PhotonMixture, r):
    """radial_wigner as a tensordot of the signed coefficients with the damped table."""
    r = np.asarray(r, dtype=float)
    scaled = laguerre_scaled_all(len(p) - 1, 2.0 * r * r)
    values = np.tensordot(reference_signed_coeffs(p), scaled, axes=1) / math.pi
    return float(values) if values.ndim == 0 else values


def reference_positivity_report(p: PhotonMixture) -> PositivityReport:
    """positivity_report with Q = P' - P/2 and its roots from numpy.polynomial.

    ``lagder``, ``lagsub``, ``lagtrim``, ``lagroots`` and ``np.unique`` do
    the floating-point operations of the package's direct formulation in
    the same order, so the candidates, and with them the reports, must be
    equal, not just close.
    """
    u_max = radial_cutoff(p)
    signed = reference_signed_coeffs(p)
    ts = lagroots(lagtrim(lagsub(lagder(signed), 0.5 * signed), 1e-300)).real
    ts = np.unique(ts[(ts > 0.0) & (ts < 2.0 * u_max)])
    rs = np.concatenate(([0.0], np.sqrt(0.5 * ts), [math.sqrt(u_max)]))
    return PositivityReport((rs, reference_radial_wigner(p, rs)))


#: mixtures with a subnormal or near-underflow top probability
TINY_TOP_MIXTURES = (
    PhotonMixture([0.5, 0.5 - 1e-320, 1e-320]),
    PhotonMixture([0.6, 0.4 - 1e-310, 1e-310]),
)


def bitwise_corpus() -> list[PhotonMixture]:
    """States on which the positivity references must match the package exactly.

    Two-photon and arc states, Dirichlet mixtures of every length class up
    to N_MAX + 1, sigma states, thermal and extremal passive states, and
    mixtures with trailing zeros or a vanishing top probability.
    """
    rng = np.random.default_rng(201)
    states = [PhotonMixture([1.0]), PhotonMixture([0.0, 1.0]),
              PhotonMixture([0.5, 0.0, 0.5]), PhotonMixture([0.5, 0.5, 0.0, 0.0]),
              *TINY_TOP_MIXTURES]
    states += [two_photon_mixture(p1, p2) for p1, p2 in (
        (0.1, 0.1), (0.3, 0.2), (0.2, 0.6), (0.6, 0.1), (0.0, 0.5), (0.25, 0.25),
        (0.45, 0.3), (0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (1.0, 0.0))]
    for p1, p2 in rng.uniform(0.0, 1.0, (200, 2)):
        if p1 + p2 > 1.0:
            p1, p2 = 1.0 - p1, 1.0 - p2
        states.append(two_photon_mixture(p1, p2))
    states += [two_photon_mixture(*extremal_arc_point(a)) for a in np.linspace(0.0, 1.0, 21)]
    lengths = np.concatenate((np.arange(1, 41), rng.integers(41, 129, 40),
                              rng.integers(129, N_MAX + 1, 10), [N_MAX + 1]))
    states += [PhotonMixture(rng.dirichlet(np.ones(n))) for n in lengths]
    states += [sigma_coefficients(m, n).coeffs for n in range(64)
               for m in range(n + 1) if (m + n) % 7 == 0]
    states += [thermal_mixture(mean) for mean in (0.05, 0.5, 1.0, 2.0, 4.0, 8.0)]
    states += [extremal_passive(n) for n in (1, 2, 3, 10, 40, 100, 255, 256)]
    return states


@pytest.fixture(autouse=True)
def no_kept_report():
    """Start every test without positivity_report's kept entry, so no test
    reads a report that an earlier test made."""
    positivity._last = (None, None)


@pytest.fixture
def reports_made(monkeypatch):
    """One entry per positivity report computed, not reused, during the test."""
    calls = []
    roots = positivity._laguerre_roots

    def counted(c):
        calls.append(c)
        return roots(c)

    monkeypatch.setattr(positivity, "_laguerre_roots", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(42)
