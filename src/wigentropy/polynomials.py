"""Stable evaluation of the polynomial kernels used by every other module.

Laguerre polynomials are evaluated by upward three-term recurrences in
double precision.  Unscaled values are accurate for degrees up to ~60
before the Gaussian envelope of the phase-space distributions damps them;
:func:`laguerre_scaled_all` folds that envelope into the recurrence so
radial Wigner sums stay bounded for any degree.

All functions are pure.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "laguerre_all",
    "laguerre_scaled_all",
    "laguerre_derivative_all",
]


def laguerre_all(nmax: int, t) -> np.ndarray:
    """All Laguerre values L_0(t) ... L_nmax(t), stacked along axis 0.

    `t` may be a scalar or an array; the result has shape (nmax+1,) + t.shape.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((nmax + 1,) + t.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 1.0 - t
    for k in range(1, nmax):
        out[k + 1] = ((2 * k + 1 - t) * out[k] - k * out[k - 1]) / (k + 1)
    return out


def laguerre_scaled_all(nmax: int, t) -> np.ndarray:
    """Gaussian-damped Laguerre values  L_k(t) exp(-t/2)  for k = 0..nmax.

    These satisfy the same recurrence as L_k and are bounded by 1 for
    t >= 0, which keeps radial Wigner evaluations overflow-free at photon
    numbers where the raw polynomials would exceed double range.
    """
    t = np.asarray(t, dtype=float)
    envelope = np.exp(-0.5 * t)
    out = np.empty((nmax + 1,) + t.shape)
    out[0] = envelope
    if nmax >= 1:
        out[1] = (1.0 - t) * envelope
    for k in range(1, nmax):
        out[k + 1] = ((2 * k + 1 - t) * out[k] - k * out[k - 1]) / (k + 1)
    return out


def laguerre_derivative_all(nmax: int, t) -> np.ndarray:
    """Derivatives dL_k/dt for k = 0..nmax.

    For t > 0 uses the identity dL_k/dt = k (L_k(t) - L_{k-1}(t)) / t;
    at t = 0 the analytic limit dL_k/dt(0) = -k applies.
    """
    t = np.asarray(t, dtype=float)
    lag = laguerre_all(nmax, t)
    out = np.zeros_like(lag)
    ks = np.arange(1, nmax + 1, dtype=float).reshape((-1,) + (1,) * t.ndim)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = ks * (lag[1:] - lag[:-1]) / t
    limit = np.broadcast_to(-ks, ratio.shape)
    out[1:] = np.where(t == 0.0, limit, ratio)
    return out
