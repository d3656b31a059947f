"""Beam-splitter action in phase space and in the Fock basis.

A beam splitter of transmittance eta maps a product input (A, B) to an
output whose Wigner function is the convolution of the input Wigner
functions rescaled by sqrt(eta) and sqrt(1-eta):

    W_out(x, p) = integral of (1/eta) W_A(x''/sqrt(eta), p''/sqrt(eta))
                  * (1/(1-eta)) W_B((x-x'')/sqrt(1-eta), (p-p'')/sqrt(1-eta))
                  dx'' dp''.

At eta = 1/2 with vacuum in port B the output Wigner function equals the
Husimi function of the input, which ties Wigner entropies of such outputs
to Wehrl entropies of the inputs.

The gridded convolution is spectral, with no real-space interpolation.
Four chirp-z transforms (Bluestein's algorithm on numpy.fft, no scipy)
evaluate the Hermitian half k_p <= 0 of each input's characteristic
function on a rescaled 2x-oversampled frequency lattice, and one exact
real inverse FFT brings the product back, done as its two steps with only
the columns the output keeps.  Every pass runs in blocks of _BLOCK_ROWS
rows, on a thread pool sized by the usable cores and made on first use;
each row meets the same numpy call in any block, so the output bits do not
depend on the worker count.  For the smooth, Gaussian-damped fields a
Wigner grid holds, the discretization error is far below the grid
normalization tolerance.

Fock-diagonal inputs cross the splitter exactly in the Fock basis: on the
N-photon subspace it is a spin-N/2 rotation, so each output photon
distribution is a column of the squared Wigner d-matrix |d^{N/2}|**2, from
the eigenvectors of the real tridiagonal J_x.  Totals above fock.N_MAX
raise TruncationError.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import GridMismatchError, TruncationError
from .fock import N_MAX
from .gaussian import GaussianState, gaussian_wigner
from .mixtures import PhotonMixture
from .positivity import radial_wigner
from .quadrature import EVAL_CHUNK

__all__ = [
    "WignerGrid",
    "grid_from_mixture",
    "grid_from_gaussian",
    "convolve_beamsplitter",
    "husimi_phase_invariant",
    "fock_oracle_sigma",
    "mix_through_beamsplitter",
]

GRID_MASS_TOL = 1e-6

_log = logging.getLogger(__name__)

#: rows per block of the convolution's FFT passes
_BLOCK_ROWS = 64
#: usable cores (CPU affinity, else the core count): the convolution's threads
#: and the worker processes of the CLI's sigma-table
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None  # ThreadPoolExecutor of _WORKERS threads, made by the first pooled call
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


@dataclass(frozen=True)
class WignerGrid:
    """Wigner function sampled on a square grid symmetric about the origin.

    ``values[i, j]`` is W(x_i, p_j) with both axes running over ``axis()``:
    ``linspace(-extent, extent, resolution)`` with its upper half mirrored
    from the lower one, so the axis is exactly symmetric.  ``resolution`` is
    the side of the square ``values``.  The Riemann sum of the values must
    equal 1 within ``mass_tol``.
    """

    values: np.ndarray
    extent: float
    resolution: int

    def __init__(self, values, extent, mass_tol=GRID_MASS_TOL):
        arr = np.array(values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise GridMismatchError(f"expected square 2-D values, got shape {arr.shape}")
        resolution = arr.shape[0]
        _check_grid(extent, resolution)
        mass = float(np.sum(arr)) * (2.0 * extent / (resolution - 1)) ** 2
        if not math.isfinite(mass):
            raise ValueError("grid values must be finite")
        if abs(mass - 1.0) > mass_tol:
            raise ValueError(f"grid mass {mass!r} deviates from 1 beyond {mass_tol}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "extent", float(extent))
        object.__setattr__(self, "resolution", resolution)

    @property
    def step(self) -> float:
        return 2.0 * self.extent / (self.resolution - 1)

    def axis(self) -> np.ndarray:
        return _axis(self.extent, self.resolution)


def _check_grid(extent: float, resolution: int) -> None:
    if not (math.isfinite(extent) and extent > 0) or resolution < 2:
        raise ValueError("extent must be positive and resolution at least 2")


def _axis(extent: float, resolution: int) -> np.ndarray:
    """linspace(-extent, extent, resolution), upper half mirrored from the lower."""
    axis = np.linspace(-extent, extent, resolution)
    half = resolution // 2
    axis[resolution - half:] = -axis[half - 1::-1]
    if resolution % 2:
        axis[half] = 0.0
    return axis


def grid_from_mixture(p: PhotonMixture, extent: float = 8.0,
                      resolution: int = 512) -> WignerGrid:
    """Sample the (radial) Wigner function of a Fock mixture on a grid.

    W is evaluated once per distinct radius, at the pairs i <= j of the
    non-negative half axis, EVAL_CHUNK radii per call, and mirrored into
    all four quadrants, so the grid is exactly symmetric.
    """
    _check_grid(extent, resolution)
    half = _axis(extent, resolution)[resolution // 2:]
    i, j = np.triu_indices(half.size)
    radii = np.sqrt(half[i] ** 2 + half[j] ** 2)
    chunks = range(0, radii.size, EVAL_CHUNK)
    quadrant = np.empty((half.size, half.size))
    for s in chunks:
        quadrant[i[s:s + EVAL_CHUNK], j[s:s + EVAL_CHUNK]] = radial_wigner(p, radii[s:s + EVAL_CHUNK])
    quadrant[j, i] = quadrant[i, j]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("sampled %dx%d grid: %d distinct radii in %d chunks of at most %d",
                   resolution, resolution, radii.size, len(chunks), EVAL_CHUNK)
    # grid index a holds the half-axis point |axis[a]|
    fold = np.abs(2 * np.arange(resolution) - (resolution - 1)) // 2
    return WignerGrid(quadrant[np.ix_(fold, fold)], extent)


def grid_from_gaussian(state: GaussianState, extent: float = 8.0,
                       resolution: int = 512) -> WignerGrid:
    """Sample a Gaussian state's Wigner function on a grid."""
    _check_grid(extent, resolution)
    axis = _axis(extent, resolution)
    return WignerGrid(gaussian_wigner(state, axis[:, None], axis[None, :]), extent)


def _fast_len(n: int) -> int:
    """Smallest 2**i * 3**j * 5**k that is at least n."""
    best = 1 << max(0, n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << max(0, -(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _for_blocks(fn, rows: int) -> None:
    """Call fn(start) for start = 0, _BLOCK_ROWS, 2 _BLOCK_ROWS, ... below rows.

    With two or more blocks and two or more usable cores the calls run on the
    pool; numpy's FFTs and ufuncs release the GIL, so they run at once.  Each
    call writes only its own rows.  fn must not call _for_blocks: a block
    waiting for the pool could hold every worker.
    """
    global _pool
    starts = range(0, rows, _BLOCK_ROWS)
    if _WORKERS < 2 or len(starts) < 2:
        for start in starts:
            fn(start)
        return
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="wigentropy-fft")
        futures = [_pool.submit(fn, start) for start in starts]
    for future in futures:
        future.result()


def _lattice_dft(x: np.ndarray, x0: float, h: float, k0: float, dk: float,
                 m: int, sign: int, into: np.ndarray | None = None) -> np.ndarray:
    """out[..., j] = sum_g x[..., g] exp(sign i (x0 + g h)(k0 + j dk)), j < m.

    Bluestein's algorithm along the last axis: g j = (g**2 + j**2 - (j-g)**2) / 2
    turns the sum into a linear convolution with the chirp
    exp(-sign i h dk t**2 / 2), done by FFT at a 5-smooth length; every
    other phase is folded into the chirps applied before and after.  x may be
    a strided view: each block's pre-chirp product is made C-ordered.  Given
    ``into``, the rows of out are multiplied into it, which is returned.
    """
    n = x.shape[-1]
    size = _fast_len(n + m - 1)
    half = 0.5 * h * dk
    g = np.arange(n)
    j = np.arange(m)
    pre = np.exp(sign * 1j * g * (h * k0 + half * g))
    post = np.exp(sign * 1j * (x0 * k0 + j * (x0 * dk + half * j)))
    # chirp at lags 0..m-1, then at lags -(n-1)..-1 wrapped to the end
    lags = np.concatenate([j, np.zeros(size - m - n + 1), np.arange(n - 1, 0, -1)])
    kernel = np.fft.fft(np.exp(-sign * 1j * half * lags * lags))
    rows = x.reshape(-1, n)
    out = np.empty((rows.shape[0], m), dtype=complex) if into is None else into.reshape(-1, m)

    def block(s):
        spectrum = np.fft.fft(np.multiply(rows[s:s + _BLOCK_ROWS], pre, order="C"), size)
        spectrum *= kernel
        spectrum = np.fft.ifft(spectrum, out=spectrum)[:, :m]
        if into is None:
            np.multiply(spectrum, post, out=out[s:s + _BLOCK_ROWS])
        else:
            out[s:s + _BLOCK_ROWS] *= spectrum * post

    _for_blocks(block, rows.shape[0])
    return out.reshape(x.shape[:-1] + (m,))


def _half_lattice_dft(x: np.ndarray, x0: float, h: float, k0: float,
                      dk: float, into: np.ndarray | None = None) -> np.ndarray:
    """sum_g x[g] exp(-i (x0 + g h) . k) at k_j = k0 + j dk, out[j_p, j_x].

    j_x < 2n and j_p <= n: for a real n x n array and k0 = -n dk, the rows j_p > n
    are conjugates, as k_{2n-j} = -k_j.  The pass along x reads the columns of
    the pass along p by blocks.  Given ``into``, out is multiplied into it.
    """
    n = x.shape[-1]
    t = _lattice_dft(x, x0, h, k0, dk, n + 1, -1)
    return _lattice_dft(t.T, x0, h, k0, dk, 2 * n, -1, into)


def convolve_beamsplitter(wa: WignerGrid, wb: WignerGrid, eta: float) -> WignerGrid:
    """Output Wigner grid of a transmittance-eta beam splitter on a product input.

    The product of the rescaled characteristic functions
    chi_A(sqrt(eta) k) chi_B(sqrt(1-eta) k) is formed on half of a
    2x-oversampled frequency lattice and transformed back to the input grid
    by one real inverse 2-D FFT.  Output mass is validated within 1e-5.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("beam-splitter transmittance must lie strictly between 0 and 1")
    if wa.extent != wb.extent or wa.resolution != wb.resolution:
        raise GridMismatchError(
            f"grids differ: extent {wa.extent} vs {wb.extent}, "
            f"resolution {wa.resolution} vs {wb.resolution}"
        )
    n = wa.resolution
    h = wa.step
    m = 2 * n
    k_nyquist = math.pi / h
    dk = 2.0 * k_nyquist / m
    sa, sb = math.sqrt(eta), math.sqrt(1.0 - eta)

    # sum over the grid of values * exp(-i scale k . xi), k_j = -k_nyquist + j dk;
    # B's spectrum is multiplied into A's block by block, never held whole
    product = _half_lattice_dft(wa.values, -wa.extent, h, -sa * k_nyquist, sa * dk)
    _half_lattice_dft(wb.values, -wa.extent, h, -sb * k_nyquist, sb * dk, product)
    # back to [x, p]: as dk h = 2 pi / m, exp(i k_j x_a) = exp(-i k_j extent)
    # (-1)**a exp(2 pi i j a / m), a length-m inverse DFT of a Hermitian array
    phase = np.exp(-1j * wa.extent * (-k_nyquist + dk * np.arange(m)))
    # irfft2(product, s=(m, m), axes=(1, 0))[:n, :n] as its two steps: ifft
    # along j_x, then irfft along j_p of only the n columns the crop keeps
    values = np.empty((n, n))
    kept = product[:, :n]
    # h**2 per forward sum, (dk / 2 pi)**2 back, and the m**2 the inverse divides by
    sign = (m * h * h * dk / (2.0 * math.pi)) * (-1.0) ** np.arange(n)

    def inverse_rows(s):
        rows = product[s:s + _BLOCK_ROWS]
        rows *= phase[: n + 1][s:s + _BLOCK_ROWS, None] * phase
        np.fft.ifft(rows, axis=1, out=rows)

    def inverse_columns(s):
        np.multiply(np.fft.irfft(kept[:, s:s + _BLOCK_ROWS], m, axis=0)[:n],
                    sign[:, None] * sign[s:s + _BLOCK_ROWS], out=values[:, s:s + _BLOCK_ROWS])

    _for_blocks(inverse_rows, n + 1)
    _for_blocks(inverse_columns, n)
    values = values.T
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("convolved %dx%d grid at eta %.6g: FFT lengths %d and %d, %d workers, "
                   "blocks of %d rows, mass %.15g, min W %.6e", n, n, eta, _fast_len(m),
                   _fast_len(n + m - 1), _WORKERS, _BLOCK_ROWS,
                   float(values.sum()) * h * h, float(values.min()))
    return WignerGrid(values, wa.extent, mass_tol=1e-5)


def husimi_phase_invariant(p: PhotonMixture, r):
    """Husimi function of a Fock mixture at radius r.

    Q(r) = (1/pi) exp(-r**2) sum_k p_k r**(2k) / k!, the coherent-state
    photon-count statistics applied to the diagonal mixture.
    """
    r = np.asarray(r, dtype=float)
    if not (r >= 0).all():
        raise ValueError("radius must be non-negative")
    scalar = r.ndim == 0
    u = np.atleast_1d(r * r).ravel()
    ks = np.nonzero(p.probs > 0)[0]
    log_p = np.log(p.probs[ks])
    log_fact = np.array([math.lgamma(k + 1) for k in ks])
    with np.errstate(divide="ignore"):
        log_u = np.where(u > 0.0, np.log(np.where(u > 0.0, u, 1.0)), -np.inf)
    with np.errstate(invalid="ignore"):
        exponents = (
            log_p[:, None] - u[None, :] + ks[:, None] * log_u[None, :]
            - log_fact[:, None]
        )
    terms = np.exp(exponents)
    if ks.size and ks[0] == 0:
        # k = 0 term is p_0 e^{-u} even at u = 0 where log u is -inf
        terms[0] = p.probs[0] * np.exp(-u)
    values = terms.sum(axis=0) / math.pi
    return float(values[0]) if scalar else values.reshape(r.shape)


def _split_probabilities(total: int, eta: float) -> np.ndarray:
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


def fock_oracle_sigma(m: int, n: int, eta: float) -> PhotonMixture:
    """Photon distribution of one beam-splitter output for the input |m, n>.

    The modes evolve as a+ -> sqrt(eta) a+ - sqrt(1-eta) b+ and
    b+ -> sqrt(1-eta) a+ + sqrt(eta) b+, and mode B is traced out: the mix
    of the Fock states |m> and |n>, column m of the split probabilities for
    m + n photons.  The sign convention is pinned by eta -> 1 sending the
    first input to the surviving mode.
    """
    if m < 0 or n < 0:
        raise ValueError("photon numbers must be non-negative")
    if m + n > N_MAX:
        raise TruncationError(f"total photon number {m + n} exceeds fock.N_MAX = {N_MAX}")
    pa, pb = (PhotonMixture(np.eye(1, k + 1, k)[0]) for k in (m, n))
    return mix_through_beamsplitter(pa, pb, eta)


def mix_through_beamsplitter(pa: PhotonMixture, pb: PhotonMixture,
                             eta: float) -> PhotonMixture:
    """Output mixture for Fock-diagonal inputs at arbitrary transmittance.

    The channel is linear and conserves the photon total, so the output is
    sum over totals N of the split probabilities for N photons applied to
    the anti-diagonal weights pa[a] pb[N - a]; this is exact for
    phase-invariant inputs at any eta, not just 1/2.  Totals whose weights
    are all zero are skipped, so a pure Fock pair costs one eigh.  The
    final roundoff renormalization refuses deviations beyond 1e-9.
    """
    total = len(pa) + len(pb) - 2
    if total > N_MAX:
        raise TruncationError(f"total photon number {total} exceeds fock.N_MAX = {N_MAX}")
    acc = np.zeros(total + 1)
    for n in range(total + 1):
        a = np.arange(max(0, n + 1 - len(pb)), min(n, len(pa) - 1) + 1)
        weights = pa.probs[a] * pb.probs[n - a]
        if weights.any():
            acc[: n + 1] += _split_probabilities(n, eta)[:, a] @ weights
    mass = math.fsum(acc.tolist())
    if abs(mass - 1.0) > 1e-9:
        raise ValueError(f"channel output mass {mass!r} is too far from 1")
    return PhotonMixture(acc / mass)
