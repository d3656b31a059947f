"""Entropy functionals of phase-space distributions.

All radial integrals are taken in u = r**2, where the area element
dx dp = pi du, so the Shannon functional of a radial profile f is
-pi * integral of f(u) ln f(u) du.  Distributions here decay under a
Gaussian envelope, so integrals are truncated where the envelope bounds
the remainder far below tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .beamsplitter import WignerGrid, husimi_phase_invariant, mix_through_beamsplitter
from .exceptions import NegativeGridError, NotPassiveError, NotWignerPositiveError
from .fock import density_entropy, marginal_entropy, wavefunction_table
from .mixtures import PhotonMixture, extremal_passive, is_passive
from .positivity import PositivityReport, positivity_report, radial_wigner
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


#: gridded values in [NEGATIVE_FLOOR, 0) are convolution and sampling roundoff
NEGATIVE_FLOOR = -1e-9

#: gridded values at or below this contribute 0 to the grid entropy: well
#: above the ~1e-16 roundoff of a convolved grid, whose noise would
#: otherwise enter through x ln x
ENTROPY_CLIP = 1e-14


def _radial_cutoff(p: PhotonMixture) -> float:
    """Upper integration limit in u = r**2."""
    return (12.0 + math.sqrt(2.0 * len(p))) ** 2


def _require_positive(p: PhotonMixture) -> PositivityReport:
    report = positivity_report(p)
    if not report.is_positive:
        raise NotWignerPositiveError(
            f"Wigner function reaches {report.min_value:.6e} at r = {report.argmin_r:.6f}",
            min_value=report.min_value,
            argmin_r=report.argmin_r,
        )
    return report


def wigner_entropy_radial(p: PhotonMixture,
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


def wigner_renyi(p: PhotonMixture, alpha: float,
                 spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Order-alpha entropy of the Wigner function of a Wigner-positive mixture.

    alpha = 1 is the Shannon functional, alpha = inf returns -ln(max W);
    alpha = 0 is rejected because every Wigner function has unbounded
    support, making the order-0 entropy divergent.  Order 2 satisfies
    h_2 = ln(2 pi / purity).
    """
    if not alpha > 0:
        raise ValueError("Renyi order must be positive (order 0 diverges)")
    report = _require_positive(p)
    if math.isinf(alpha):
        return -math.log(report.max_value)
    u_max = _radial_cutoff(p) * max(1.0, 1.0 / alpha)
    # W ln W and W**alpha are singular at the touches only for alpha <= 1
    points = report.touches if alpha <= 1.0 else None
    if alpha == 1.0:
        return entropy_integral(lambda u: radial_wigner(p, np.sqrt(u)), 0.0, u_max, spec,
                                weight=math.pi, points=points)

    def integrand(u):
        return np.maximum(radial_wigner(p, np.sqrt(u)), 0.0) ** alpha

    norm = math.pi * integrate(integrand, 0.0, u_max, spec, points=points)
    return math.log(norm) / (1.0 - alpha)


def wehrl_entropy(p: PhotonMixture,
                  spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Shannon entropy of the Husimi function of a Fock mixture.

    Defined for every physical state (the Husimi function is positive) and
    bounded below by ln(pi) + 1, with coherent states as minimizers.
    """
    u_max = _radial_cutoff(p)
    return entropy_integral(
        lambda u: husimi_phase_invariant(p, np.sqrt(u)), 0.0, u_max, spec,
        weight=math.pi,
    )


def mixture_marginal_entropy(p: PhotonMixture,
                             spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Entropy of the position density sum_k p_k psi_k(x)**2 of the mixture."""
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
