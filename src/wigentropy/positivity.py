"""Wigner positivity of phase-invariant states.

The Wigner function of a Fock mixture p is radial,

    W(r) = (1/pi) exp(-r**2) sum_k p_k (-1)**k L_k(2 r**2),

so positivity is a one-dimensional question.  With t = 2 r**2,
pi W = exp(-t/2) P(t) for the alternating Laguerre series P, and W is
stationary exactly at r = 0 and at the real roots of Q = P' - P/2.  In the
Laguerre basis dL_k/dt = -(L_0 + ... + L_{k-1}), so Q's coefficients are
-s_k/2 minus the suffix sum s_{k+1} + ... + s_n of P's coefficients s.  A
positivity report is W at its candidates: r = 0, Q's roots (eigenvalues of
the Laguerre comrade matrix) and the tail end of the search range,
evaluated in one call; there is no grid for a narrow dip to slip through.
The extrema, and the one touch rule that detects tangency with zero (the
signature of extremal states), are read from those values.  The module
also carries the exact closed-form description of the positive region for
mixtures of up to two photons.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.laguerre import lagval

from .fock import N_MAX, laguerre_scaled_all
from .mixtures import PhotonMixture

__all__ = [
    "EPS_POS",
    "PositivityReport",
    "radial_wigner",
    "scan_radius",
    "positivity_report",
    "curved_boundary_residual",
    "two_photon_mixture",
    "two_photon_region_contains",
    "extremal_arc_point",
    "extremal_arc_wigner",
]

#: absolute tolerance on Wigner values (scale 1/pi) separating "negative"
#: from roundoff noise
EPS_POS = 1e-12

_log = logging.getLogger(__name__)

#: (-1)**k for every photon number k a mixture may hold
_SIGNS = (-1.0) ** np.arange(N_MAX + 1)
_SIGNS.flags.writeable = False

#: top coefficients this small are dropped before root finding: the comrade
#: matrix divides by the leading one, and they cannot move W measurably
_TRIM_TOL = 1e-300


@dataclass(frozen=True)
class PositivityReport:
    """W at its candidates, r = 0, the stationary radii and the tail end
    scan_radius, with the global extrema over them; ties go to the smaller
    radius."""

    #: (radii, W), the radii ascending from 0 to the tail end
    candidates: tuple = field(compare=False, repr=False)
    is_positive: bool = field(init=False)
    min_value: float = field(init=False)
    argmin_r: float = field(init=False)
    max_value: float = field(init=False)
    argmax_r: float = field(init=False)

    def __post_init__(self):
        rs, ws = self.candidates
        i_min, i_max = int(ws.argmin()), int(ws.argmax())
        fix = object.__setattr__  # the dataclass is frozen
        fix(self, "min_value", float(ws[i_min]))
        fix(self, "is_positive", self.min_value >= -EPS_POS)
        fix(self, "argmin_r", float(rs[i_min]))
        fix(self, "max_value", float(ws[i_max]))
        fix(self, "argmax_r", float(rs[i_max]))

    @property
    def touches(self) -> np.ndarray:
        """u = r**2 at the touches, the interior candidates with |W| <= EPS_POS no
        larger than either neighbour: W's double roots, simple roots of Q."""
        rs, ws = self.candidates
        mid = ws[1:-1]
        return rs[1:-1][(np.abs(mid) <= EPS_POS) & (mid <= ws[:-2]) & (mid <= ws[2:])] ** 2

    @property
    def touches_zero(self) -> bool:
        """Positive, with a touch or |W(0)| <= EPS_POS.  A zero at the tail end
        is the decay every state shares, not a touch."""
        ws = self.candidates[1]
        return self.is_positive and bool(abs(ws[0]) <= EPS_POS or self.touches.size)


def _signed_coeffs(p: PhotonMixture) -> np.ndarray:
    return p.probs * _SIGNS[:len(p)]


def _laguerre_roots(c: np.ndarray) -> np.ndarray:
    """Sorted real parts of the roots of the Laguerre series sum_k c_k L_k.

    The roots are the eigenvalues of numpy's Laguerre comrade matrix, built
    and rotated as ``numpy.polynomial.laguerre.lagroots`` does, so they are
    bit for bit ``lagroots(lagtrim(c, 1e-300)).real``.
    """
    (kept,) = np.nonzero(np.abs(c) > _TRIM_TOL)
    deg = int(kept[-1]) if len(kept) else 0
    if deg == 0:
        return np.empty(0)
    if deg == 1:
        return np.array([1.0 + c[0] / c[1]])
    mat = np.diag(2.0 * np.arange(deg) + 1.0)
    flat = mat.reshape(-1)
    flat[1::deg + 1] = flat[deg::deg + 1] = -np.arange(1.0, deg)
    mat[:, -1] += (c[:deg] / c[deg]) * deg
    return np.sort(np.linalg.eigvals(mat[::-1, ::-1]).real)


def radial_wigner(p: PhotonMixture, r):
    """Wigner function of the mixture at radius r (scalar or array).

    Computed with Gaussian-damped Laguerre values, so it stays finite for
    any mixture length and radius.
    """
    r = np.asarray(r, dtype=float)
    if not (r >= 0).all():
        raise ValueError("radius must be non-negative")
    n = len(p)
    scaled = laguerre_scaled_all(n - 1, 2.0 * r * r)
    values = np.dot(_signed_coeffs(p)[None, :], scaled.reshape(n, r.size))
    values = values.reshape(r.shape) / math.pi
    return float(values) if values.ndim == 0 else values


def scan_radius(p: PhotonMixture) -> float:
    """Upper end of the search range: classical radius plus buffer."""
    n = len(p)
    return math.sqrt(n + 6.0 * math.sqrt(n) + 20.0)


def positivity_report(p: PhotonMixture) -> PositivityReport:
    """W(r) at the candidates of [0, scan_radius], as a PositivityReport.

    The candidates are r = 0, the radii of the real parts of the roots of
    Q = P' - P/2 inside the range, and r = scan_radius; W is evaluated
    once on all of them, and the report reads its extrema and touches from
    those values.  Real parts of complex roots only add candidates, so a
    double root that roundoff splits into a near-real pair is still found.
    """
    r_max = scan_radius(p)
    signed = _signed_coeffs(p)
    # Q_k = -s_k/2 - (s_{k+1} + ... + s_n), the suffix sums accumulated
    # from the top as lagder does
    q = -0.5 * signed
    q[:-1] -= np.cumsum(signed[:0:-1])[::-1]
    ts = _laguerre_roots(q)
    ts = ts[(ts > 0.0) & (ts < 2.0 * r_max * r_max)]
    # drop repeated roots: besides the wasted work, the column count of
    # radial_wigner's dot product can change its last bit
    ts = np.concatenate((ts[:1], ts[1:][ts[1:] != ts[:-1]]))
    rs = np.concatenate(([0.0], np.sqrt(0.5 * ts), [r_max]))
    report = PositivityReport((rs, radial_wigner(p, rs)))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("%d stationary points in (0, %.6g), %d touches: min W %.6e at r = %.6g, "
                   "max W %.6e at r = %.6g", len(ts), r_max, len(report.touches),
                   report.min_value, report.argmin_r, report.max_value, report.argmax_r)
    return report


def curved_boundary_residual(p: PhotonMixture, t: float) -> tuple[float, float]:
    """Value and t-derivative of the alternating Laguerre sum at t = 2 r**2.

    A mixture sits on the curved part of the positivity boundary when both
    components vanish for some t >= 0 (the radial Wigner function and its
    derivative share a root there).  The derivative's Laguerre coefficients
    are the suffix sums -(s_{k+1} + ... + s_n) that positivity_report
    builds Q from, so at t = 0 the slope is -sum_k k s_k; a double root
    found there belongs to the flat facet of the region instead of the
    curved boundary.
    """
    if not t >= 0:
        raise ValueError("t must be non-negative")
    signed = _signed_coeffs(p)
    # the zero top coefficient keeps the vacuum's slope series non-empty
    slope = np.append(-np.cumsum(signed[:0:-1])[::-1], 0.0)
    return float(lagval(t, signed)), float(lagval(t, slope))


def two_photon_mixture(p1: float, p2: float) -> PhotonMixture:
    """Mixture (1-p1-p2, p1, p2) of the first three Fock states."""
    if not (p1 >= 0 and p2 >= 0 and p1 + p2 <= 1):
        raise ValueError("(p1, p2) must lie in the physical triangle")
    return PhotonMixture([1.0 - p1 - p2, p1, p2])


def two_photon_region_contains(p1: float, p2: float) -> bool:
    """Exact membership test for the Wigner-positive region of two-photon mixtures.

    The closed region is p1 <= 1/2 together with
    p2 <= 1/4 + (1/4) sqrt(1 - 4 p1**2).
    """
    if not (p1 >= 0 and p2 >= 0 and p1 + p2 <= 1):
        raise ValueError("(p1, p2) must lie in the physical triangle")
    if p1 > 0.5:
        return False
    return p2 <= 0.25 + 0.25 * math.sqrt(max(0.0, 1.0 - 4.0 * p1 * p1))


def extremal_arc_point(a: float) -> tuple[float, float]:
    """Point (p1, p2) on the curved boundary arc, parametrized by a in [0, 1].

    p1 = sqrt(1 - a**2)/2 and p2 = (a + 1)/4; the end a = 1 is the state
    (1/2)|0><0| + (1/2)|2><2| and a = 0 meets the flat facet at p1 = 1/2.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("arc parameter must lie in [0, 1]")
    return 0.5 * math.sqrt(1.0 - a * a), 0.25 * (a + 1.0)


def extremal_arc_wigner(a: float, r: float) -> float:
    """Closed-form radial Wigner function of the arc state with parameter a.

    W_a(r) = (1/pi) exp(-r**2) (a+1)/2 (r**2 - 1 + sqrt((1-a)/(1+a)))**2,
    a perfect square: non-negative with a double root where it touches zero.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("arc parameter must lie in [0, 1]")
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    shift = math.sqrt((1.0 - a) / (1.0 + a))
    return math.exp(-r * r) * 0.5 * (a + 1.0) * (r * r - 1.0 + shift) ** 2 / math.pi
