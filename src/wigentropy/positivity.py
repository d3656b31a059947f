"""Wigner positivity of phase-invariant states.

The Wigner function of a Fock mixture p is radial,

    W(r) = (1/pi) exp(-r**2) sum_k p_k (-1)**k L_k(2 r**2),

so positivity is a one-dimensional question.  With t = 2 r**2,
pi W = exp(-t/2) P(t) for the alternating Laguerre series P, and W is
stationary exactly at r = 0 and at the real roots of Q = P' - P/2.  In the
Laguerre basis dL_k/dt = -(L_0 + ... + L_{k-1}), so Q's coefficients are
-s_k/2 minus the suffix sum s_{k+1} + ... + s_n of P's coefficients s.  A
positivity report is W at its candidates: r = 0, Q's roots (eigenvalues of
the Laguerre comrade matrix) and the tail end of radial_cutoff, the one
range the entropy integrals cover too, evaluated in one call; there is no
grid for a narrow dip to slip through.  The extrema, and the one touch rule
that detects tangency with zero (the signature of extremal states), are
read from those values.  The last report is kept, keyed by the state's
probabilities as bytes (which fix the length, and with it radial_cutoff),
so back-to-back questions about one state, a decision and then its
entropies, share one report; any other state replaces it.  The module also
carries the exact closed-form description of the positive region for
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
    "radial_cutoff",
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

#: diagonal 2k + 1 and off-diagonal -k of the Laguerre comrade matrix, k <
#: N_MAX, the largest degree of a mixture's Q
_COMRADE_DIAG = 2.0 * np.arange(N_MAX) + 1.0
_COMRADE_OFF = -np.arange(float(N_MAX))
_COMRADE_DIAG.flags.writeable = _COMRADE_OFF.flags.writeable = False

#: top coefficients this small are dropped before root finding: the comrade
#: matrix divides by the leading one, and they cannot move W measurably
_TRIM_TOL = 1e-300

#: (p.probs.tobytes(), report) of the last report made; replaced whole by one
#: tuple assignment, so a thread reads a matching pair, and a race only recomputes
_last = (None, None)


@dataclass(frozen=True)
class PositivityReport:
    """W at its candidates, r = 0, the stationary radii and the tail end
    sqrt(radial_cutoff), with the global extrema over them; ties go to the
    smaller radius."""

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
        larger than either neighbour, after the zero at the origin, which runs
        to the first |W| > EPS_POS, and before the envelope tail, which starts
        after the last: W's double roots, simple roots of Q."""
        rs, ws = self.candidates
        mid = ws[1:-1]
        (clear,) = np.nonzero(np.abs(ws) > EPS_POS)
        first, last = (clear[0], clear[-1]) if clear.size else (0, 0)
        index = np.arange(1, len(ws) - 1)
        return rs[1:-1][(np.abs(mid) <= EPS_POS) & (mid <= ws[:-2]) & (mid <= ws[2:])
                        & (first < index) & (index < last)] ** 2

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
    mat = np.zeros((deg, deg))
    flat = mat.reshape(-1)
    flat[::deg + 1] = _COMRADE_DIAG[:deg]
    flat[1::deg + 1] = flat[deg::deg + 1] = _COMRADE_OFF[1:deg]
    mat[:, -1] += (c[:deg] / c[deg]) * deg
    return np.sort(np.linalg.eigvals(mat[::-1, ::-1]).real)


def radial_wigner(p: PhotonMixture, r):
    """Wigner function of the mixture at radius r (scalar or array).

    Computed with Gaussian-damped Laguerre values, so it stays finite for
    any mixture length and finite radius.
    """
    r = np.asarray(r, dtype=float)
    if not ((r >= 0) & (r < math.inf)).all():
        raise ValueError("radius must be finite and non-negative")
    values = _radial_values(_signed_coeffs(p), r)
    return float(values) if values.ndim == 0 else values


def _radial_values(signed: np.ndarray, r: np.ndarray) -> np.ndarray:
    """radial_wigner's array for the signed coefficients of a mixture, at an
    array of finite r >= 0 that the caller has checked or built."""
    n = signed.size
    t = 2.0 * r
    t *= r
    scaled = laguerre_scaled_all(n - 1, t)
    values = np.dot(signed[None, :], scaled.reshape(n, r.size)).reshape(r.shape)
    values /= math.pi
    return values


def radial_cutoff(p: PhotonMixture) -> float:
    """End (12 + sqrt(2 len))**2 in u = r**2 of the positivity search and the
    radial integrals.  Past it |W| <= max_k |L_k(t) exp(-t/2)| / pi, which
    is at most 2.3e-79 up to 4 times the cutoff for every length up to
    N_MAX + 1 (the vacuum the worst), so no decision at EPS_POS hides there."""
    return (12.0 + math.sqrt(2.0 * len(p))) ** 2


def positivity_report(p: PhotonMixture) -> PositivityReport:
    """W(r) at the candidates of u = r**2 in [0, radial_cutoff], as a PositivityReport.

    The candidates are r = 0, the radii of the real parts of the roots of
    Q = P' - P/2 inside the range, and r = sqrt(radial_cutoff); W is
    evaluated once on all of them, and the report reads its extrema and
    touches from those values.  Real parts of complex roots only add
    candidates, so a double root that roundoff splits into a near-real pair
    is still found: sigma(m, m)'s touches are all m roots of L_m.

    A call about the same probabilities as the last one, bit for bit and
    of the same length, returns that call's report; its candidates are
    read-only, so no caller can change what the next one gets.
    """
    global _last
    key = p.probs.tobytes()
    last_key, last_report = _last
    if key == last_key:
        _log.debug("report reused: same probabilities as the last call")
        return last_report
    u_max = radial_cutoff(p)
    signed = _signed_coeffs(p)
    # Q_k = -s_k/2 - (s_{k+1} + ... + s_n), the suffix sums accumulated
    # from the top as lagder does
    q = -0.5 * signed
    q[:-1] -= np.cumsum(signed[:0:-1])[::-1]
    ts = _laguerre_roots(q)
    ts = ts[(ts > 0.0) & (ts < 2.0 * u_max)]
    if ts.size > 1:
        # drop repeated roots: besides the wasted work, the column count of
        # the kernel's dot product can change its last bit
        ts = np.concatenate((ts[:1], ts[1:][ts[1:] != ts[:-1]]))
    rs = np.concatenate(([0.0], np.sqrt(0.5 * ts), [math.sqrt(u_max)]))
    ws = _radial_values(signed, rs)
    rs.flags.writeable = ws.flags.writeable = False
    report = PositivityReport((rs, ws))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("%d stationary points in 0 < u < u_max = %.6g, %d touches: min W %.6e at "
                   "r = %.6g, max W %.6e at r = %.6g", len(ts), u_max, len(report.touches),
                   report.min_value, report.argmin_r, report.max_value, report.argmax_r)
    _last = key, report
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
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and non-negative")
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
    if not 0 <= r < math.inf:
        raise ValueError("radius must be finite and non-negative")
    shift = math.sqrt((1.0 - a) / (1.0 + a))
    return math.exp(-r * r) * 0.5 * (a + 1.0) * (r * r - 1.0 + shift) ** 2 / math.pi
