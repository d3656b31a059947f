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
function on a rescaled frequency lattice of m points per axis, and one
exact real inverse FFT brings the product back, done as its two steps with
only the columns the output keeps.  The lattice is as coarse as aliasing
allows: the rescaled inputs lie in sqrt(eta) [-E, E] and sqrt(1-eta)
[-E, E], so their convolution lies in (sqrt(eta) + sqrt(1-eta)) [-E, E],
within sqrt(2) [-E, E], and its images a period P = m h apart miss the
output window [-E, E] when P >= (1 + sqrt(2)) E, i.e. when
m >= (1 + sqrt(2)) (n - 1) / 2.  A grid even in x and in p, as every grid
of a phase-invariant state is, has on the centred window a real spectrum,
even in k_x and in k_p: its pass along p transforms its first ceil(n/2)
rows two to a complex FFT row, as its real and imaginary parts, and copies
the rest; its pass along x takes two columns to an FFT row and computes
only k_x <= 0, a real quarter lattice.  Every other grid takes the half
lattice on all its rows.  Both inputs take their pass along p, in port
order, then their pass along x, each to a lattice of its own, and the
product is formed block by block on the way back.  When both inputs are
doubly even, so is the output, and the way back computes only its first
ceil(n/2) columns in x.  At 128**2 to 512**2 such outputs lie within
7.1e-15 of the exact ones, Fock-basis or Gaussian, and within 1.6e-14 of
the general path's.  Every pass splits its rows into near-equal blocks of
at most _BLOCK_ROWS, as many as a multiple of the workers, and runs them
on a thread pool sized by the usable cores and made on first use; each FFT
row meets the same numpy call in any block, so the output bits do not
depend on the worker count or the blocks.  For the smooth, Gaussian-damped
fields a Wigner grid holds, the discretization error is far below the grid
normalization tolerance.

The band is cut where no output value can move.  The characteristic
functions are Gaussian-damped, but the lattice spans the whole band, so
most product rows hold only roundoff.  After the pass along p, t[a, j_p],
each entry of row j_p of the lattice is a sum over a of t[a, j_p] times
unit phases, so b[j_p] = sum_a |t[a, j_p]| bounds it.  An output value is
(h**2 dk / 2 pi)**2 times a sum of the product over the m x m lattice times
unit phases, in which row j_p and its conjugate row m - j_p hold 2 m
entries: they move it by at most
reach[j_p] = 2 m (h**2 dk / 2 pi)**2 b_A[j_p] b_B[j_p].  lo is the largest
row index with reach[0] + ... + reach[lo - 1] <= BAND_TOL = 2**-60, and
row m/2 (k_p = 0) is always kept.  Only rows lo..m/2 take the pass along x
and the first step of the way back; the rows below lo enter the second
step as exact zeros.  lo is fixed before any block of the pass along x
runs, so the bits still do not depend on the blocks.  A grid-convolve
benchmark op keeps 32 to 66 of the 161 rows at 256**2 and 30 to 64 of the
321 at 512**2 (seeds 201 to 203); a grid with content up to k_nyq keeps
every row.

Fock-diagonal inputs cross the splitter exactly in the Fock basis: on the
N-photon subspace it is a spin-N/2 rotation, so each output photon
distribution is a column of the squared Wigner d-matrix |d^{N/2}|**2
(Campos, Saleh & Teich, PRA 40, 1371 (1989)).  One sweep builds the real
amplitudes of every total from those of the total below, by Risbo's
two-sided recursion (J. Geodesy 70, 383 (1996)), keeping only the columns
the inputs weight.  Photon numbers and totals pass fock.check_photon_number,
the package's one guard of its limit, so those above fock.N_MAX raise
TruncationError, which is a ValueError.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import GridMismatchError
from .fock import N_MAX, check_photon_number
from .gaussian import GaussianState, gaussian_wigner
from .mixtures import PhotonMixture, _real_array
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

#: largest |Riemann mass - 1| of a sampled grid: the mass outside the window
#: plus the Riemann sum's error.  Measured at most 1.2e-7 over the tests' 221
#: sampled Fock grids (sigma(10, 10) at 64**2 and extent 12), 1.2e-10 over
#: their 77 Gaussian grids and 1.8e-12 over the grid-convolve benchmark's
#: inputs at seed 201
GRID_MASS_TOL = 1e-6

_log = logging.getLogger(__name__)

#: ln k! for every photon number k a mixture may hold
_LOG_FACTORIALS = np.array([math.lgamma(k + 1) for k in range(N_MAX + 1)])
_LOG_FACTORIALS.flags.writeable = False

#: most that the product rows a convolution skips may move any of its output
#: values, summed over the rows (see convolve_beamsplitter)
BAND_TOL = 2.0 ** -60

#: most rows in one block of the convolution's FFT passes
_BLOCK_ROWS = 64
#: usable cores (CPU affinity, else the core count): the convolution's threads
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
    equal 1 within ``mass_tol``.  Values must be real numbers, not booleans.
    """

    values: np.ndarray
    extent: float
    resolution: int

    def __init__(self, values, extent, mass_tol=GRID_MASS_TOL):
        arr = _real_array(values, "grid values")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise GridMismatchError(f"expected square 2-D values, got shape {arr.shape}")
        resolution = arr.shape[0]
        _check_grid(extent, resolution)
        mass = float(np.sum(arr)) * (2.0 * extent / (resolution - 1)) ** 2
        if not math.isfinite(mass):
            raise ValueError("grid values must be finite")
        if abs(mass - 1.0) > mass_tol:
            raise ValueError(f"grid mass {mass!r} deviates from 1 beyond {mass_tol}")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "extent", float(extent))
        object.__setattr__(self, "resolution", resolution)

    @property
    def step(self) -> float:
        return 2.0 * self.extent / (self.resolution - 1)

    def axis(self) -> np.ndarray:
        return _axis(self.extent, self.resolution)


def _check_grid(extent: float, resolution: int) -> None:
    bad_extent = isinstance(extent, (bool, np.bool_)) or not (math.isfinite(extent) and extent > 0)
    if bad_extent or resolution < 2:
        raise ValueError(f"extent must be positive and resolution at least 2, got {extent!r}")


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
    """Sample a Gaussian state's Wigner function on a grid.

    The window [-extent, extent] must hold all but GRID_MASS_TOL of the
    mass, else WignerGrid refuses the grid: a standard deviation sigma along
    an axis needs about extent >= 4.9 sigma, as erfc(3.46) = 1e-6.  At the
    default extent 8 a squeezed vacuum (sigma = exp(|s|) / sqrt(2)) is
    taken up to |s| = 0.84 and refused from 0.85, mass 0.9999988 at 256**2
    and 512**2, although gaussian.MAX_SQUEEZE is 2; more squeezing needs a
    larger extent.
    """
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


def _lattice_size(n: int) -> int:
    """Frequency points per axis of an n x n convolution: the smallest even,
    5-smooth m >= (1 + sqrt(2)) (n - 1) / 2, at least n for n >= 2."""
    return 2 * _fast_len(math.ceil((1.0 + math.sqrt(2.0)) * (n - 1) / 4))


def _spans(rows: int) -> list[tuple[int, int]]:
    """Near-equal blocks [start, stop) that tile range(rows), none longer
    than _BLOCK_ROWS.  Blocks that go to the pool (two or more, on two or
    more workers) come in a multiple of _WORKERS, unless rows is smaller,
    so no worker idles while another runs a last block."""
    count = -(-rows // _BLOCK_ROWS)
    if _WORKERS > 1 and count > 1:
        count = min(rows, -(-count // _WORKERS) * _WORKERS)
    edges = [rows * k // count for k in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _for_blocks(fn, rows: int) -> None:
    """Call fn(start, stop) for each block of _spans(rows).

    With two or more blocks and two or more usable cores the calls run on the
    pool; numpy's FFTs and ufuncs release the GIL, so they run at once.  Each
    call writes only its own rows.  fn must not call _for_blocks: a block
    waiting for the pool could hold every worker.
    """
    global _pool
    spans = _spans(rows)
    if _WORKERS < 2 or len(spans) < 2:
        for start, stop in spans:
            fn(start, stop)
        return
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="wigentropy-fft")
        futures = [_pool.submit(fn, start, stop) for start, stop in spans]
    for future in futures:
        future.result()


def _lattice_dft(x: np.ndarray, x0: float, h: float, k0: float, dk: float,
                 m: int, pairs: bool = False) -> np.ndarray:
    """out[..., j] = sum_g x[..., g] exp(-i (x0 + g h)(k0 + j dk)), j < m.

    Bluestein's algorithm along the last axis: g j = (g**2 + j**2 - (j-g)**2) / 2
    turns the sum into a linear convolution with the chirp
    exp(i h dk t**2 / 2), done by FFT at a 5-smooth length; every
    other phase is folded into the chirps applied before and after.  x may be
    a strided view: each block's pre-chirp product is made C-ordered.  With
    ``pairs``, x is real and so is every row's sum: rows 2q and 2q + 1 enter
    one FFT row as its real and imaginary parts, and by linearity the real
    and imaginary parts of that row's sum are their sums; out is real.  At
    DEBUG each call logs its FFT rows, FFT length and blocks.
    """
    n = x.shape[-1]
    size = _fast_len(n + m - 1)
    half = 0.5 * h * dk
    g = np.arange(n)
    j = np.arange(m)
    pre = np.exp(-1j * g * (h * k0 + half * g))
    post = np.exp(-1j * (x0 * k0 + j * (x0 * dk + half * j)))
    # chirp at lags 0..m-1, then at lags -(n-1)..-1 wrapped to the end
    lags = np.concatenate([j, np.zeros(size - m - n + 1), np.arange(n - 1, 0, -1)])
    kernel = np.fft.fft(np.exp(1j * half * lags * lags))
    rows = x.reshape(-1, n)
    out = np.empty(x.shape[:-1] + (m,), dtype=float if pairs else complex)
    flat = out.reshape(-1, m)

    def block(s, e):
        if pairs:
            odd = rows[2 * s + 1:2 * e:2]
            z = np.zeros((e - s, n), dtype=complex)
            z.real = rows[2 * s:2 * e:2]
            z.imag[:len(odd)] = odd
            z *= pre
        else:
            z = np.multiply(rows[s:e], pre, order="C")
        spectrum = np.fft.fft(z, size)
        del z  # not held through the rest of the block
        spectrum *= kernel
        spectrum = np.fft.ifft(spectrum, out=spectrum)[:, :m]
        if pairs:
            spectrum *= post
            flat[2 * s:2 * e:2] = spectrum.real
            flat[2 * s + 1:2 * e:2] = spectrum.imag[:len(odd)]
        else:
            np.multiply(spectrum, post, out=flat[s:e])

    count = -(-rows.shape[0] // 2) if pairs else rows.shape[0]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("Bluestein pass: %d FFT rows of length %d in %d blocks",
                   count, size, len(_spans(count)))
    _for_blocks(block, count)
    return out


def _doubly_even(x: np.ndarray) -> bool:
    """Whether x[a] == x[n-1-a] and x[a, b] == x[a, n-1-b], as in every grid of a
    phase-invariant state (a signed zero matches either sign, which moves no
    sum).  Compared in turn: the central pair of rows, where most other grids
    fail, the lower half of the rows, then the left half of the first
    ceil(n/2) rows against their mirrored columns."""
    n = x.shape[0]
    mid, rows = n // 2 - 1, n - n // 2
    return (np.array_equal(x[mid], x[n - 1 - mid])
            and np.array_equal(x[: n // 2], x[::-1][: n // 2])
            and np.array_equal(x[:rows, : n // 2], x[:rows, ::-1][:, : n // 2]))


def _pass_along_p(x: np.ndarray, even: bool, x0: float, h: float, k0: float,
                  dk: float, m: int) -> np.ndarray:
    """t[a, j_p] = sum_b x[a, b] exp(-i (x0 + b h) k_{j_p}), k_j = k0 + j dk,
    for j_p <= m/2: for a real x, an even m and k0 = -(m/2) dk, the rows
    j_p > m/2 of the half lattice are conjugates, as k_{m-j} = -k_j.

    With ``even``, x is doubly even (see _doubly_even) on a centred window,
    x0 = -(n-1) h / 2: each sum is real and row n-1-a of t is row a, so the
    first ceil(n/2) rows are transformed two to an FFT row and the rest are
    copied.
    """
    if not even:
        return _lattice_dft(x, x0, h, k0, dk, m // 2 + 1)
    n = x.shape[0]
    t = _lattice_dft(x[: n - n // 2], x0, h, k0, dk, m // 2 + 1, pairs=True)
    return np.concatenate([t, t[: n // 2][::-1]])


def _pass_along_x(t: np.ndarray, lo: int, x0: float, h: float, k0: float,
                  dk: float, m: int) -> np.ndarray:
    """out[j_p - lo, j_x] = sum_a t[a, j_p] exp(-i (x0 + a h) k_{j_x}) for
    lo <= j_p <= m/2: the half lattice from row lo, j_x < m, of a complex t.

    A real t, from a doubly even x, is even in k_x too: its columns go two to
    an FFT row and only j_x <= m/2 is computed, at FFT length
    _fast_len(n + m//2), a real quarter lattice whose column j_x > m/2 is
    column m - j_x.  The pass reads the columns of t by blocks.
    """
    pairs = t.dtype == float
    return _lattice_dft(t.T[lo:], x0, h, k0, dk, m // 2 + 1 if pairs else m, pairs=pairs)


def convolve_beamsplitter(wa: WignerGrid, wb: WignerGrid, eta: float) -> WignerGrid:
    """Output Wigner grid of a transmittance-eta beam splitter on a product input.

    The product of the rescaled characteristic functions
    chi_A(sqrt(eta) k) chi_B(sqrt(1-eta) k) is formed on half of an m x m
    frequency lattice over the band |k| <= pi / h, a doubly even input's
    factor on a real quarter of it (see _doubly_even), and transformed back
    to the input grid by one real inverse 2-D FFT.  The real-space period
    m h must hold the output window and one image of the output's support
    (sqrt(eta) + sqrt(1-eta) <= sqrt(2) times the window) without overlap:
    m >= (1 + sqrt(2)) (n - 1) / 2, taken even and 5-smooth.  Output mass is
    validated within 1e-5, which holds the mass the window cuts off an
    output near its edge: the largest output mass error is 2.7e-6 over the
    tests' convolutions (an output centred at x = 6 of the extent 8) and
    1.9e-12 over the grid-convolve benchmark's outputs at seed 201.  Grids
    too coarse for the state, such as 33**2 at extent 8, can fail it.
    Product rows whose summed bound on any output value stays within
    BAND_TOL are skipped (module docstring).
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
    m = _lattice_size(n)
    k_nyquist = math.pi / h
    dk = 2.0 * k_nyquist / m
    sa, sb = math.sqrt(eta), math.sqrt(1.0 - eta)

    # sum over the grid of values * exp(-i scale k . xi), k_j = -k_nyquist + j dk:
    # both passes along p in port order, then, from the band's first kept row
    # lo, both passes along x: a real quarter lattice for a doubly even input,
    # as the window is centred, else a half lattice.  A second quarter lattice
    # is multiplied into the first; a second half lattice is multiplied into
    # the first by blocks on the way back
    even = [_doubly_even(w.values) for w in (wa, wb)]
    scales = (sa, sb)
    firsts = [_pass_along_p(w.values, e, -wa.extent, h, -s * k_nyquist, s * dk, m)
              for w, e, s in zip((wa, wb), even, scales)]
    # sum_a |t[a, j_p]| bounds every entry of lattice row j_p, so product row
    # j_p and its conjugate move an output value by at most reach[j_p]
    bound_a, bound_b = (np.abs(t).sum(axis=0) for t in firsts)
    reach = (2 * m * (h * h * dk / (2.0 * math.pi)) ** 2) * bound_a * bound_b
    dropped = np.cumsum(reach)
    lo = min(int(np.searchsorted(dropped, BAND_TOL, side="right")), m // 2)
    halves, quarter = [], None
    for doubly_even, scale in zip(even, scales):
        # each pass along p is dropped once its pass along x is made
        lattice = _pass_along_x(firsts.pop(0), lo, -wa.extent, h, -scale * k_nyquist, scale * dk, m)
        if not doubly_even:
            halves.append(lattice)
        elif quarter is None:
            quarter = lattice
        else:
            quarter *= lattice
    half = m // 2 + 1
    # column j_x > m/2 of a quarter lattice is its column m - j_x
    mirror = np.r_[:half, m // 2 - 1:0:-1]
    # back to [x, p]: as dk h = 2 pi / m, exp(i k_j x_a) = exp(-i k_j extent)
    # (-1)**a exp(2 pi i j a / m), a length-m inverse DFT of a Hermitian array
    phase = np.exp(-1j * wa.extent * (-k_nyquist + dk * np.arange(m)))
    # irfft2(product, s=(m, m), axes=(1, 0))[:n, :n] as its two steps: ifft
    # along j_x of the kept rows, then irfft along j_p of only the n columns
    # the crop keeps, where the rows below lo are exact zeros
    kept = np.zeros((half, n), dtype=complex)
    # h**2 per forward sum, (dk / 2 pi)**2 back, and the m**2 the inverse divides by
    sign = (m * h * h * dk / (2.0 * math.pi)) * (-1.0) ** np.arange(n)

    def inverse_rows(s, e):
        # rows lo + s .. lo + e - 1 of the product, formed in the first half
        # lattice if there is one; else the phases and the quarter lattice are it
        rows = halves[0][s:e] if halves else np.empty((e - s, m), dtype=complex)
        for other in halves[1:]:
            rows *= other[s:e]
        factor = np.multiply(phase[lo + s:lo + e, None], phase, out=None if halves else rows)
        if quarter is not None:
            factor *= quarter[s:e, mirror]
        if halves:
            rows *= factor
        kept[lo + s:lo + e] = np.fft.ifft(rows, axis=1, out=rows)[:, :n]

    def inverse_columns(s, e):
        np.multiply(np.fft.irfft(kept[:, s:e], m, axis=0)[:n],
                    sign[:, None] * sign[s:e], out=values[:, s:e])

    # the output of two doubly even inputs is even in x: column n-1-a is column a
    columns = n - n // 2 if all(even) else n
    _for_blocks(inverse_rows, half - lo)
    # their last use: a lattice still held when the output is made slows the
    # way back, 1.8 ms where it takes 0.85 ms for a 512**2 Fock grid with the vacuum
    halves = quarter = None
    values = np.empty((n, n))
    _for_blocks(inverse_columns, columns)
    values[:, columns:] = values[:, : n - columns][:, ::-1]
    values = values.T
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("convolved %dx%d grid at eta %.6g: lattice %d, %d workers; A %s, B %s; "
                   "band from row %d, %d of %d rows kept, dropped rows bound %.3e; "
                   "%d rows back along x in %d blocks, %d columns back in %d blocks, "
                   "mass %.15g, min W %.6e", n, n, eta, m, _WORKERS,
                   *("doubly even" if e else "general" for e in even),
                   lo, half - lo, half, dropped[lo - 1] if lo else 0.0,
                   half - lo, len(_spans(half - lo)), columns, len(_spans(columns)),
                   float(values.sum()) * h * h, float(values.min()))
    return WignerGrid(values, wa.extent, mass_tol=1e-5)


def husimi_phase_invariant(p: PhotonMixture, r):
    """Husimi function of a Fock mixture at radius r.

    Q(r) = (1/pi) exp(-r**2) sum_k p_k r**(2k) / k!, the coherent-state
    photon-count statistics applied to the diagonal mixture.
    """
    r = np.asarray(r, dtype=float)
    if not ((r >= 0) & (r < math.inf)).all():
        raise ValueError("radius must be finite and non-negative")
    scalar = r.ndim == 0
    ks = np.nonzero(p.probs > 0)[0]
    log_p = np.log(p.probs[ks])
    log_fact = _LOG_FACTORIALS[ks]
    # ln p_k - u + k ln u - ln k!, summed in that order in one table
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = np.atleast_1d(r * r).ravel()
        # past r = 1.34e154, r**2 overflows: Q has long since underflowed to 0,
        # and reads 0 at the largest double too
        np.minimum(u, 1.7976931348623157e308, out=u)
        log_u = np.log(u)  # -inf at u = 0
        terms = np.subtract.outer(log_p, u)
        terms += np.multiply.outer(ks, log_u)
        terms -= log_fact[:, None]
    np.exp(terms, terms)
    if ks.size and ks[0] == 0:
        # k = 0 term is p_0 e^{-u} even at u = 0 where log u is -inf
        row = np.negative(u, terms[0])
        np.exp(row, row)
        row *= p.probs[0]
    values = terms.sum(axis=0)
    values /= math.pi
    return float(values[0]) if scalar else values.reshape(r.shape)


def _amplitude_step(prev: np.ndarray, n: int, lo: int, hi: int,
                    u: float, v: float) -> np.ndarray:
    """A^n[k, a] = <k, n-k| U |a, n-a> for k <= n and lo <= a <= hi, from A^(n-1).

    ``prev`` holds the columns of the level below from max(lo - 1, 0); the
    rest enter as 0.  |a, n-a> = (sqrt(a) a+ |a-1, n-a> + sqrt(n-a) b+
    |a, n-a-1>) / n under a+ -> u a+ - v b+, b+ -> v a+ + u b+ gives Risbo's
    two-sided recursion (J. Geodesy 70, 383 (1996)) in boson form; a+ alone
    would amplify roundoff to 8e20 by n = 256 at eta = 1/2.
    """
    width = hi - lo + 1
    padded = np.zeros((n + 2, width + 1))  # rows k = -1..n, columns a = lo-1..hi
    first = int(lo == 0)
    padded[1:n + 1, first:first + prev.shape[1]] = prev
    up, down = padded[:-1], padded[1:]  # A[k-1, .] and A[k, .] for k = 0..n
    k = np.arange(n + 1.0)[:, None]
    sk, snk = np.sqrt(k), np.sqrt(n - k)
    a = np.arange(lo, hi + 1.0)
    via_a = u * sk * up - v * snk * down  # the image of a+, read at column a - 1
    via_b = v * sk * up + u * snk * down  # the image of b+, read at column a
    return (np.sqrt(a) * via_a[:, :width] + np.sqrt(n - a) * via_b[:, 1:]) / n


def fock_oracle_sigma(m: int, n: int, eta: float) -> PhotonMixture:
    """Photon distribution of one beam-splitter output for the input |m, n>.

    The modes evolve as a+ -> sqrt(eta) a+ - sqrt(1-eta) b+ and
    b+ -> sqrt(1-eta) a+ + sqrt(eta) b+, and mode B is traced out: the mix
    of the Fock states |m> and |n>, the squared column m of the amplitudes
    for m + n photons.  The sign convention is pinned by eta -> 1 sending the
    first input to the surviving mode.
    """
    check_photon_number(m)
    check_photon_number(n)
    pa, pb = (PhotonMixture(np.eye(1, k + 1, k)[0]) for k in (m, n))
    return mix_through_beamsplitter(pa, pb, eta)


def mix_through_beamsplitter(pa: PhotonMixture, pb: PhotonMixture,
                             eta: float) -> PhotonMixture:
    """Output mixture for Fock-diagonal inputs at arbitrary transmittance.

    The channel is linear and conserves the photon total, so the output is
    sum over totals N of the squared amplitudes A^N[k, a]**2 applied to the
    anti-diagonal weights pa[a] pb[N - a]; this is exact for phase-invariant
    inputs at any eta, not just 1/2.  A^N comes from A^(N-1) by
    _amplitude_step, for the columns a those weights index, so the sweep
    costs O(total**2 * min(len(pa), len(pb))).  The final roundoff
    renormalization refuses deviations beyond 1e-9.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmittance must lie in [0, 1]")
    total = len(pa) + len(pb) - 2
    check_photon_number(total)
    u, v = math.sqrt(eta), math.sqrt(1.0 - eta)
    acc = np.zeros(total + 1)
    amplitudes = np.ones((1, 1))
    for n in range(total + 1):
        lo, hi = max(0, n + 1 - len(pb)), min(n, len(pa) - 1)
        if n:
            amplitudes = _amplitude_step(amplitudes, n, lo, hi, u, v)
        a = np.arange(lo, hi + 1)
        weights = pa.probs[a] * pb.probs[n - a]
        if weights.any():
            acc[: n + 1] += amplitudes ** 2 @ weights
    mass = math.fsum(acc.tolist())
    if abs(mass - 1.0) > 1e-9:
        raise ValueError(f"channel output mass {mass!r} is too far from 1")
    return PhotonMixture(acc / mass)
