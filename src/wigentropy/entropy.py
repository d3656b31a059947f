"""Entropy functionals of phase-space distributions.

All radial integrals are taken in u = r**2, where the area element
dx dp = pi du, so the Shannon functional of a radial profile f is
-pi * integral of f(u) ln f(u) du.  Distributions here decay under a
Gaussian envelope, so radial integrals stop at positivity.radial_cutoff,
where the envelope bounds the remainder far below tolerance.

The Renyi and Shannon functionals need W >= 0.  Two kinds of state have
it by construction, so at finite order they skip the stationary-point
search.  A beam-splitter output sigma(m, n), given as its SigmaState, has
W = lo!/(pi hi!) exp(-u) u**d L_lo^(d)(u)**2 with lo = min(m, n),
hi = max(m, n) and d = |m - n|, and its touches are the roots of
L_lo^(d).  A passive state (mixtures.is_passive) is a convex mixture of
the equiprobable mixtures of |0>..|n> (mixtures.passive_decompose), each
positive by the Fock sum identity (fock_sum_identity_residual), with
W > 0 for r > 0.  Every other state, and order infinity, which reads
max W from it, is gated by a positivity report.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .beamsplitter import WignerGrid, husimi_phase_invariant, mix_through_beamsplitter
from .exceptions import NegativeGridError, NotPassiveError, NotWignerPositiveError
from .fock import density_entropy, laguerre_scaled_all, marginal_entropy, wavefunction_table
from .mixtures import PhotonMixture, SigmaState, extremal_passive, is_passive
from .positivity import (_radial_values, _signed_coeffs, positivity_report, radial_cutoff,
                         radial_wigner)
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, entropy_integral, integrate

__all__ = [
    "MIN_WIGNER_ENTROPY",
    "wigner_entropy_radial",
    "wigner_entropy_grid",
    "wigner_renyi",
    "wehrl_entropy",
    "mixture_marginal_entropy",
    "entropy_power",
    "check_epi",
    "passive_bound_check",
    "wehrl_bridge_check",
    "fock_sum_identity_residual",
]

#: conjectured lower bound ln(pi) + 1, attained by Gaussian pure states
MIN_WIGNER_ENTROPY = math.log(math.pi) + 1.0


#: gridded values in [NEGATIVE_FLOOR, 0) are convolution and sampling
#: roundoff; a grid with a value below it is refused as no grid of a
#: Wigner-positive state.  It admits roundoff with a margin of ~1e5: the most
#: negative value of a convolution of non-negative grids is -4.1e-15 over the
#: tests' 46 such convolutions and -1.0e-14 over the 156 outputs of the
#: grid-convolve benchmark at seed 201
NEGATIVE_FLOOR = -1e-9

#: gridded values at or below this contribute 0 to the grid entropy: well
#: above the ~1e-16 roundoff of a convolved grid, whose noise would
#: otherwise enter through x ln x.  As -x ln x rises up to 1/e, the clip moves
#: the entropy by at most 3.3e-13 per unit of phase-space area, 8.5e-11 on a
#: grid of extent 8; it moved it by at most 2.0e-12 over the tests' grid
#: entropies and 3.2e-12 over the grid-convolve benchmark's outputs
ENTROPY_CLIP = 1e-14

_log = logging.getLogger(__name__)


def wigner_entropy_radial(p: PhotonMixture | SigmaState,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Shannon entropy of the Wigner function of a Wigner-positive Fock mixture.

    The order-1 case of wigner_renyi.  Raises NotWignerPositiveError when
    the radial profile dips below -EPS_POS anywhere, since the integrand is
    then undefined.
    """
    return wigner_renyi(p, 1.0, spec)


def wigner_entropy_grid(grid: WignerGrid) -> float:
    """Riemann-sum entropy of a gridded Wigner function.

    Values in [NEGATIVE_FLOOR, 0) are clipped to 0 (convolution and
    sampling roundoff); anything below the floor is rejected because the
    grid does not describe a Wigner-positive state.
    """
    values = grid.values
    min_value = float(values.min())
    if min_value < NEGATIVE_FLOOR:
        raise NegativeGridError(
            f"grid minimum {min_value:.3e} is below the floor {NEGATIVE_FLOOR:.0e}"
        )
    cell = grid.step ** 2
    positive = values[values > ENTROPY_CLIP]
    return float(-np.sum(positive * np.log(positive)) * cell)


def _sigma_profile(s: SigmaState):
    """W(u) of sigma(m, n) in factored form, u = r**2, and its touches.

    pi W is the square of L_lo^(d)(u) exp(-u/2) times sqrt(u / (lo + j)),
    j = 1..d: each factor rounds on its own, where ln(lo!/hi!) + d ln u
    would cancel terms of size d ln u, and the product starts from the
    damped polynomial, so it never overflows.  The touches are the roots of
    L_lo^(d), eigenvalues of its Jacobi matrix (Golub & Welsch 1969).
    """
    lo, d = min(s.m, s.n), abs(s.m - s.n)

    def wigner(u):
        root = laguerre_scaled_all(lo, u, d)[lo]
        for j in range(lo + 1, lo + d + 1):
            root *= np.sqrt(u / j)
        return root * root / math.pi

    k = np.arange(lo)
    jacobi = np.diag(2.0 * k + 1.0 + d)
    jacobi[k[1:], k[:-1]] = -np.sqrt(k[1:] * (k[1:] + d))
    return wigner, np.linalg.eigvalsh(jacobi)


def wigner_renyi(p: PhotonMixture | SigmaState, alpha: float,
                 spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Order-alpha entropy of the Wigner function of a Wigner-positive mixture.

    alpha = 1 is the Shannon functional, alpha = inf returns -ln(max W);
    alpha = 0 is rejected because every Wigner function has unbounded
    support, making the order-0 entropy divergent.  Order 2 satisfies
    h_2 = ln(2 pi / purity).

    At finite order a SigmaState, in factored form, and a passive state are
    positive by construction (module docstring) and make no positivity
    report.  Every other state, and order inf, which reads max W from the
    report (of the coeffs for a SigmaState), makes one, or reuses the last
    one made for the same probabilities, and raises NotWignerPositiveError
    when W < 0.  Orders up to 1 split the integrals at the touches, where
    W ln W and W**alpha are singular.

    Orders below 1 integrate up to radial_cutoff/alpha, but the generic
    route's damped table exp(-u) L_k(2u) is subnormal past u ~ 708 and 0
    past u ~ 745, so W reads 0 there whatever its size: W of
    extremal_passive(256) reads 2.6e-45 at u = 745 and 0 at 750, its order
    0.05 raises QuadratureConvergenceError and order 0.1 returns 7.461326,
    about 3e-6 short in h.  The sigma route, damped by exp(-u/2) before
    squaring, reaches u ~ 1490.
    """
    if not alpha > 0:
        raise ValueError("Renyi order must be positive (order 0 diverges)")
    sigma, p = (p, p.coeffs) if isinstance(p, SigmaState) else (None, p)
    if sigma and math.isfinite(alpha):
        _log.debug("order %g: sigma(m, n), positive by construction", alpha)
        wigner, touches = _sigma_profile(sigma)
    else:
        if math.isfinite(alpha) and is_passive(p):
            _log.debug("order %g: passive, positive by construction", alpha)
            touches = None
        else:
            report = positivity_report(p)
            _log.debug("order %g: gated by a positivity report", alpha)
            if not report.is_positive:
                raise NotWignerPositiveError(
                    f"Wigner function reaches {report.min_value:.6e} at r = {report.argmin_r:.6f}",
                    min_value=report.min_value,
                    argmin_r=report.argmin_r,
                )
            if math.isinf(alpha):
                return -math.log(report.max_value)
            touches = report.touches if alpha <= 1.0 else None
        signed = _signed_coeffs(p)

        def wigner(u):  # u >= 0: every abscissa lies inside [0, u_max]
            return _radial_values(signed, np.sqrt(u))
    points = touches if alpha <= 1.0 else None
    u_max = radial_cutoff(p) * max(1.0, 1.0 / alpha)
    if alpha == 1.0:
        return entropy_integral(wigner, 0.0, u_max, spec, weight=math.pi, points=points)

    def integrand(u):
        w = wigner(u)  # a new array, clipped and raised in place
        np.maximum(w, 0.0, out=w)
        w **= alpha
        return w

    norm = math.pi * integrate(integrand, 0.0, u_max, spec, points=points)
    return math.log(norm) / (1.0 - alpha)


def wehrl_entropy(p: PhotonMixture | SigmaState,
                  spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Shannon entropy of the Husimi function of a Fock mixture.

    Defined for every physical state (the Husimi function is positive) and
    bounded below by ln(pi) + 1, with coherent states as minimizers.  A
    SigmaState is taken as its coeffs.
    """
    if isinstance(p, SigmaState):
        p = p.coeffs
    u_max = radial_cutoff(p)
    return entropy_integral(
        lambda u: husimi_phase_invariant(p, np.sqrt(u)), 0.0, u_max, spec,
        weight=math.pi,
    )


def mixture_marginal_entropy(p: PhotonMixture | SigmaState,
                             spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Entropy of the position density sum_k p_k psi_k(x)**2 of the mixture
    (of its coeffs for a SigmaState)."""
    if isinstance(p, SigmaState):
        p = p.coeffs
    return density_entropy(p.probs, spec)


def entropy_power(h: float) -> float:
    """Entropy power (2 pi e)**-1 exp(h) of a two-variable differential entropy."""
    return math.exp(h) / (2.0 * math.pi * math.e)


def check_epi(pa: PhotonMixture, pb: PhotonMixture, eta: float,
              spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Entropy powers for the beam-splitter entropy-power inequality.

    Returns (N_out, eta * N_A + (1-eta) * N_B) where the output state of
    the transmittance-eta beam splitter is built exactly in the Fock basis
    (the channel is linear over Fock-diagonal inputs at any eta).  The
    first component must dominate the second.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("transmittance must lie strictly between 0 and 1")
    h_a = wigner_entropy_radial(pa, spec)
    h_b = wigner_entropy_radial(pb, spec)
    out = mix_through_beamsplitter(pa, pb, eta)
    h_out = wigner_entropy_radial(out, spec)
    bound = eta * entropy_power(h_a) + (1.0 - eta) * entropy_power(h_b)
    return entropy_power(h_out), bound


def passive_bound_check(p: PhotonMixture,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Wigner entropy of a passive state vs its marginal-entropy lower bound.

    Returns (h(W), 2 sum_k p_k h(rho_k)); the first must dominate the
    second for any decreasing mixture, with equality for the vacuum.
    """
    if not is_passive(p):
        raise NotPassiveError("bound only holds for decreasing mixtures")
    lhs = wigner_entropy_radial(p, spec)
    rhs = 2.0 * math.fsum(
        float(pk) * marginal_entropy(k, spec)
        for k, pk in enumerate(p.probs)
        if pk > 0.0
    )
    return lhs, rhs


def wehrl_bridge_check(p: PhotonMixture, spec: QuadratureSpec = DEFAULT_QUADRATURE
                       ) -> tuple[float, float]:
    """Wigner entropy of the balanced-splitter-with-vacuum output vs Wehrl entropy.

    The two numbers are the same functional computed through two distinct
    routes: the output mixture sum_a p_a sigma(a, 0) integrated as a radial
    Wigner function, and the Husimi power series integrated directly.  They
    must agree within quadrature tolerance.
    """
    vacuum_port = PhotonMixture([1.0])
    output = mix_through_beamsplitter(p, vacuum_port, 0.5)
    return wigner_entropy_radial(output, spec), wehrl_entropy(p, spec)


def fock_sum_identity_residual(n: int) -> float:
    """Largest deviation between the two closed forms of the cumulative Wigner sum.

    For every (x, p), sum_{k<=n} W_k(x, p) equals
    sum_{k<=n} psi_k(x)**2 psi_{n-k}(p)**2; the identity is what makes the
    equiprobable low-energy mixtures manifestly Wigner positive.  The left
    side is (n + 1) times the production radial_wigner of that mixture.
    Returns max |LHS - RHS| over a 41 x 41 grid on [-5, 5]**2.
    """
    axis = np.linspace(-5.0, 5.0, 41)
    x, q = np.meshgrid(axis, axis, indexing="ij")
    lhs = (n + 1) * radial_wigner(extremal_passive(n), np.hypot(x, q))

    psi_sq = wavefunction_table(n, axis) ** 2
    rhs = np.einsum("kx,kp->xp", psi_sq, psi_sq[::-1])
    return float(np.max(np.abs(lhs - rhs)))
