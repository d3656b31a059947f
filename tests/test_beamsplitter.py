import logging
import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.signal import fftconvolve

from conftest import exact_split_probs, fock_mixture, reference_split_probabilities
from wigentropy import beamsplitter, mixtures
from wigentropy.beamsplitter import (
    GRID_MASS_TOL,
    WignerGrid,
    _doubly_even,
    _fast_len,
    _lattice_dft,
    _lattice_size,
    convolve_beamsplitter,
    fock_oracle_sigma,
    grid_from_gaussian,
    grid_from_mixture,
    husimi_phase_invariant,
    mix_through_beamsplitter,
)
from wigentropy.entropy import wehrl_bridge_check
from wigentropy.exceptions import GridMismatchError, TruncationError
from wigentropy.fock import N_MAX
from wigentropy.gaussian import GaussianState, gaussian_wigner, squeezed_vacuum
from wigentropy.mixtures import PhotonMixture, sigma_coefficients, thermal_mixture
from wigentropy.positivity import radial_wigner

VACUUM = PhotonMixture([1.0])
UNIFORM = np.full((8, 8), 49 / 256)  # a grid of mass 1 at extent 1
WEHRL_FOCK_1 = math.log(math.pi) + 1.0 + np.euler_gamma  # frozen oracle 2.7219455508


@pytest.fixture
def sweep_steps(monkeypatch):
    """Arguments of each Fock-sweep step taken; the steps themselves do nothing."""
    steps = []
    monkeypatch.setattr(beamsplitter, "_amplitude_step", lambda *args: steps.append(args))
    return steps


def radial_values(p, extent, resolution):
    """The meshgrid formula grid_from_mixture replaced: W at every grid point."""
    axis = np.linspace(-extent, extent, resolution)
    x, q = np.meshgrid(axis, axis, indexing="ij")
    return radial_wigner(p, np.sqrt(x * x + q * q))


def mirrored(x):
    """x with row n-1-a a copy of row a, for a < n/2."""
    n = x.shape[0]
    return np.concatenate([x[: n - n // 2], x[: n // 2][::-1]])


def doubly_mirrored(x):
    """x even in both axes: mirrored rows, then mirrored columns."""
    return np.ascontiguousarray(mirrored(mirrored(x).T).T)


def half_lattice_direct(x, x0, h, m):
    """(direct, k0, dk): the half-lattice sum the two passes evaluate, summed
    directly on the convolution's k grid for m points per axis."""
    n = x.shape[0]
    xi = x0 + np.arange(n) * h
    dk = 2.0 * math.pi / (m * h)
    k0 = -(m // 2) * dk
    k = k0 + np.arange(m) * dk
    # direct[j1, j0] = sum_{g0, g1} x[g0, g1] exp(-i (xi_g0 k_j0 + xi_g1 k_j1))
    phase = np.exp(-1j * (xi[:, None, None, None] * k[None, None, None, :]
                          + xi[None, :, None, None] * k[None, None, : m // 2 + 1, None]))
    return np.einsum("ab,abjk->jk", x, phase), k0, dk


@pytest.fixture
def dft_rows(monkeypatch):
    """(pass, FFT rows) of each _lattice_dft call the module makes, in call
    order: "p" or "x" for the pass that makes it, then one FFT row per row of
    x, or one per two with ``pairs``."""
    rows, passes = [], []
    real = beamsplitter._lattice_dft

    def counting(x, *args, **kwargs):
        rows.append((passes[-1], -(-x.shape[0] // 2) if kwargs.get("pairs") else x.shape[0]))
        return real(x, *args, **kwargs)

    for axis in "px":
        def tagged(*args, real_pass=getattr(beamsplitter, f"_pass_along_{axis}"), axis=axis):
            passes.append(axis)
            return real_pass(*args)

        monkeypatch.setattr(beamsplitter, f"_pass_along_{axis}", tagged)
    monkeypatch.setattr(beamsplitter, "_lattice_dft", counting)
    return rows


def band_start(wa, wb, eta):
    """lo, the first product row convolve_beamsplitter keeps for this pair
    (the output is not checked)."""
    lo = []
    real = beamsplitter._pass_along_x
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(beamsplitter, "_pass_along_x",
                      lambda t, first, *args: lo.append(first) or real(t, first, *args))
        patch.setattr(beamsplitter, "WignerGrid", lambda values, *args, **kwargs: values)
        convolve_beamsplitter(wa, wb, eta)
    assert lo[0] == lo[1]
    return lo[0]


def displaced_squeezed_gaussian(rng):
    """Gaussian with mean (+, -) and a squeezed covariance rotated off the diagonals."""
    theta, s = rng.uniform(0.1, 0.6), rng.uniform(0.2, 0.4)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    cov = 0.5 * rot @ np.diag([math.exp(2 * s), math.exp(-2 * s)]) @ rot.T
    return GaussianState([rng.uniform(0.4, 1.2), -rng.uniform(0.4, 1.2)], cov)


class TestWignerGrid:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            WignerGrid(np.ones((64, 64)), extent=8.0)

    def test_rejects_wrong_shape(self):
        for shape in [(4, 5), (16,)]:
            with pytest.raises(GridMismatchError):
                WignerGrid(np.zeros(shape), extent=8.0)

    def test_rejects_complex_values(self):
        # numpy would drop the imaginary part with only a ComplexWarning
        with pytest.raises(ValueError, match="real numbers"):
            WignerGrid(UNIFORM + 0.5j, 1.0)

    def test_rejects_strings_and_booleans_among_values(self):
        cells = UNIFORM.tolist()
        assert np.array_equal(WignerGrid(cells, 1.0).values, UNIFORM)
        cells[0][0] = True
        for bad in (UNIFORM.astype(str), UNIFORM.astype(str).tolist(), cells, UNIFORM > 0):
            with pytest.raises(ValueError, match="real numbers"):
                WignerGrid(bad, 1.0)

    def test_numeric_arrays_skip_the_boolean_walk(self, monkeypatch):
        # the walk reads every element as a Python object: 48 ms at 512**2
        monkeypatch.setattr(mixtures, "_holds_bool", lambda values: pytest.fail("walked"))
        assert WignerGrid(UNIFORM, 1.0).values.dtype == float
        assert (WignerGrid(np.ones((8, 8), dtype=int), 7 / 16).values == 1.0).all()  # step 1/8
        assert PhotonMixture(np.array([0, 1])).probs.dtype == float
        state = GaussianState(np.zeros(2, dtype=int), 0.5 * np.eye(2))
        assert state.mean.dtype == state.cov.dtype == float

    def test_rejects_nan_cell(self):
        # a NaN mass fails no |mass - 1| comparison, so it needs its own check
        values = grid_from_mixture(VACUUM, 8.0, 64).values.copy()
        values[10, 20] = np.nan
        with pytest.raises(ValueError, match="finite"):
            WignerGrid(values, 8.0)

    def test_axis_is_symmetric(self):
        grid = grid_from_mixture(VACUUM, 6.0, 128)
        axis = grid.axis()
        assert np.array_equal(axis, -axis[::-1])

    @pytest.mark.parametrize("resolution", [2, 3, 4, 5, 127])
    def test_axis_mirrors_lower_half_of_linspace(self, resolution):
        axis = beamsplitter._axis(6.0, resolution)
        assert np.array_equal(axis, -axis[::-1])
        assert axis[0] == -6.0 and axis[-1] == 6.0
        lower = np.linspace(-6.0, 6.0, resolution)[: resolution // 2]
        assert np.array_equal(axis[: resolution // 2], lower)

    @pytest.mark.parametrize("extent, resolution", [
        (8.0, 1), (8.0, 0), (8.0, -4), (0.0, 64), (-8.0, 64),
        (math.nan, 64), (math.inf, 64), (-math.inf, 64), (True, 64), (np.True_, 64),
    ])
    def test_builders_reject_bad_grid_first(self, monkeypatch, extent, resolution):
        def never(*args):
            raise AssertionError("evaluated before the grid was validated")

        monkeypatch.setattr(beamsplitter, "radial_wigner", never)
        monkeypatch.setattr(beamsplitter, "gaussian_wigner", never)
        match = "extent must be positive and resolution at least 2"
        with pytest.raises(ValueError, match=match):
            grid_from_mixture(VACUUM, extent, resolution)
        with pytest.raises(ValueError, match=match):
            grid_from_gaussian(GaussianState([0.0, 0.0], 0.5 * np.eye(2)), extent, resolution)
        if resolution >= 0:
            with pytest.raises(ValueError, match=match):
                WignerGrid(np.zeros((resolution, resolution)), extent)


GRID_STATES = {"mix3": PhotonMixture([0.2, 0.5, 0.3]), "thermal1": thermal_mixture(1.0),
               "sigma(10,10)": sigma_coefficients(10, 10).coeffs}


class TestGridFromMixture:
    @pytest.mark.parametrize("resolution", [64, 65, 127, 128, 255, 256, 511, 512])
    @pytest.mark.parametrize("p", GRID_STATES.values(), ids=GRID_STATES.keys())
    def test_exactly_symmetric(self, p, resolution):
        v = grid_from_mixture(p, 8.0, resolution).values
        assert np.array_equal(v, v.T)
        assert np.array_equal(v, v[::-1])
        assert np.array_equal(v, v[:, ::-1])

    @pytest.mark.parametrize("resolution", [64, 65, 255, 256, 512])
    @pytest.mark.parametrize("extent", [8.0, 12.0])
    @pytest.mark.parametrize("p", GRID_STATES.values(), ids=GRID_STATES.keys())
    def test_matches_meshgrid_formula(self, p, extent, resolution):
        # only the axis moves: linspace's upper half is up to an ulp off the
        # mirrored one; measured worst 3.6e-15, at sigma(10,10)
        got = grid_from_mixture(p, extent, resolution).values
        assert np.max(np.abs(got - radial_values(p, extent, resolution))) <= 5e-15

    def test_memory_held_to_eval_chunk(self):
        # 106 terms: all 512**2 radii at once took a 220 MB Laguerre table;
        # a chunk's table is 106 x EVAL_CHUNK doubles (3.5 MB), measured peak 5.5 MB
        p = thermal_mixture(3.0)
        tracemalloc.start()
        try:
            grid_from_mixture(p, 12.0, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6


class TestGridFromGaussian:
    @pytest.mark.parametrize("resolution", [64, 255, 512])
    def test_matches_meshgrid_formula(self, rng, resolution):
        # the two axes broadcast instead of two meshgrids; every element
        # meets the same arithmetic, so the grids are equal, not just close
        state = displaced_squeezed_gaussian(rng)
        x, q = np.meshgrid(beamsplitter._axis(8.0, resolution),
                           beamsplitter._axis(8.0, resolution), indexing="ij")
        got = grid_from_gaussian(state, 8.0, resolution).values
        assert np.array_equal(got, gaussian_wigner(state, x, q))

    def test_extent_8_holds_squeezing_up_to_0_84(self):
        # the window cuts the stretched axis's tail: 9.4e-7 of the mass at
        # |s| = 0.84, 1.2e-6 at 0.85, though gaussian.MAX_SQUEEZE is 2
        for s in (0.84, -0.84):
            grid = grid_from_gaussian(squeezed_vacuum(s), 8.0, 256)
            assert 1.0 - GRID_MASS_TOL < np.sum(grid.values) * grid.step ** 2 < 1.0
        for s in (0.85, -0.85):
            with pytest.raises(ValueError, match=r"grid mass 0\.9999987\d* deviates"):
                grid_from_gaussian(squeezed_vacuum(s), 8.0, 256)

    def test_memory(self):
        # a 512**2 grid is 2.1 MB; measured peak 6.3 MB (the quadratic form,
        # the values and WignerGrid's copy), 14.7 MB from two meshgrids
        state = GaussianState([0.3, -0.2], [[1.2, 0.3], [0.3, 0.9]])
        tracemalloc.start()
        try:
            grid_from_gaussian(state, 8.0, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


class TestLatticeDFT:
    @pytest.mark.parametrize("n, m", [(7, 12), (12, 7), (64, 33), (33, 64), (100, 200), (1, 5)])
    def test_matches_direct_sum(self, rng, n, m):
        x0, h, k0, dk = -1.3, 0.21, 0.7, 0.037
        x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        g, j = np.arange(n), np.arange(m)
        direct = x @ np.exp(-1j * np.outer(x0 + g * h, k0 + j * dk))
        out = _lattice_dft(x, x0, h, k0, dk, m)
        assert out.shape == (3, m)
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [7, 12])
    def test_half_lattice_matches_direct_sum(self, rng, dft_rows, n):
        # m = 2n, the convolution's lattice (8 and 16) and 2n - 4 (10 and 20);
        # a grid even in x only takes every row too; the pass along x makes
        # the rows from any first row lo to m/2
        x0, h = -1.3, 0.21
        for x in (rng.normal(size=(n, n)), mirrored(rng.normal(size=(n, n)))):
            for m in (2 * n, _lattice_size(n), 2 * n - 4):
                direct, k0, dk = half_lattice_direct(x, x0, h, m)
                for lo in (0, 1, m // 2):
                    dft_rows.clear()
                    t = beamsplitter._pass_along_p(x, False, x0, h, k0, dk, m)
                    out = beamsplitter._pass_along_x(t, lo, x0, h, k0, dk, m)
                    assert dft_rows == [("p", n), ("x", m // 2 + 1 - lo)]
                    assert out.shape == (m // 2 + 1 - lo, m)
                    assert np.max(np.abs(out - direct[lo:])) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 12])
    def test_quarter_lattice_matches_direct_sum(self, rng, dft_rows, n):
        # a doubly even x on a centred window: the half lattice is real and
        # even in k_x, so its columns j_x <= m/2 hold all of it
        h = 0.21
        x0 = -(n - 1) * h / 2
        x = doubly_mirrored(rng.normal(size=(n, n)))
        for m in (2 * n, _lattice_size(n), max(2, 2 * n - 4)):
            direct, k0, dk = half_lattice_direct(x, x0, h, m)
            mirror = np.r_[: m // 2 + 1, m // 2 - 1 : 0 : -1]
            for lo in (0, 1, m // 2):
                dft_rows.clear()
                t = beamsplitter._pass_along_p(x, True, x0, h, k0, dk, m)
                out = beamsplitter._pass_along_x(t, lo, x0, h, k0, dk, m)
                assert dft_rows == [("p", -(-(n - n // 2) // 2)), ("x", -(-(m // 2 + 1 - lo) // 2))]
                assert out.dtype == float and out.shape == (m // 2 + 1 - lo, m // 2 + 1)
                assert np.max(np.abs(out[:, mirror] - direct[lo:])) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [64, 65])
    def test_phase_invariant_and_centred_grids_take_half_the_rows(self, rng, dft_rows, n):
        # doubly even: half the rows, two to an FFT row, then half the
        # frequencies along x, two columns to an FFT row; the passes along p
        # in port order, then those along x over the kept rows.  The band
        # reaches k_nyq at 64**2 and 65**2 (41 rows kept of 41) but for the
        # centred Gaussian, narrow in x (37)
        m = _lattice_size(n)
        other = displaced_squeezed_gaussian(rng)
        skewed = grid_from_gaussian(other, 8.0, n)
        centred = GaussianState([0.0, 0.0], np.diag([0.3, 1.2]))
        even_p, general_p = ("p", -(-(n - n // 2) // 2)), ("p", n)
        for grid, kept in ((grid_from_mixture(VACUUM, 8.0, n), 41),
                           (grid_from_mixture(fock_mixture(3), 8.0, n), 41),
                           (grid_from_mixture(thermal_mixture(1.0), 8.0, n), 41),
                           (grid_from_gaussian(centred, 8.0, n), 37)):
            even_x, general_x = ("x", -(-kept // 2)), ("x", kept)
            dft_rows.clear()
            convolve_beamsplitter(grid, skewed, 0.5)
            convolve_beamsplitter(skewed, grid, 0.5)
            assert dft_rows == [even_p, general_p, even_x, general_x,
                                general_p, even_p, general_x, even_x]
        # even in x only: the general path, every row and every frequency
        # along x.  Measured 2.6e-12 to 2.9e-12 from the analytic output at
        # 64**2 and 65**2, near p = 5: the window cuts the input's tail at
        # p = 8, 6e-11 high (2.4e-13 to 6.9e-13 at extent 10)
        dft_rows.clear()
        even_in_x = GaussianState([0.0, 0.7], np.diag([0.3, 1.2]))
        out = convolve_beamsplitter(grid_from_gaussian(even_in_x, 8.0, n), skewed, 0.5)
        assert dft_rows == [("p", n), ("p", n), ("x", m // 2 + 1), ("x", m // 2 + 1)]
        mixed = GaussianState(math.sqrt(0.5) * (even_in_x.mean + other.mean),
                              0.5 * (even_in_x.cov + other.cov))
        assert np.max(np.abs(out.values - grid_from_gaussian(mixed, 8.0, n).values)) <= 5e-12

    @pytest.mark.parametrize("n", [65, 128])
    @pytest.mark.parametrize("mirror_row", [True, False], ids=["p-ulp", "x-ulp"])
    def test_one_ulp_off_doubly_even_takes_the_general_path(self, dft_rows, n, mirror_row):
        # one ulp up at (1, n-1): even in x still, with the same ulp in row
        # n-2, but not in p; without it, not in x either.  Measured 1.1e-15
        # at 65**2 and 2.5e-15 at 128**2 from the doubly even pair; at 64**2
        # the general path keeps an odd part in x of 4.7e-11, from the
        # unpaired k = -k_nyq column, which the doubly even path drops.  The
        # band keeps 41 rows of 41 at 65**2 and 51 of 65 at 128**2
        grid = grid_from_mixture(fock_mixture(3), 8.0, n)
        values = grid.values.copy()
        for a in (1, n - 2) if mirror_row else (1,):
            values[a, n - 1] = np.nextafter(values[a, n - 1], np.inf)
        broken = WignerGrid(values, 8.0)
        assert [_doubly_even(grid.values), _doubly_even(values)] == [True, False]
        kept = {65: 41, 128: 51}[n]
        out = convolve_beamsplitter(broken, grid, 0.5)
        assert dft_rows == [("p", n), ("p", -(-(n - n // 2) // 2)), ("x", kept), ("x", -(-kept // 2))]
        expected = convolve_beamsplitter(grid, grid, 0.5).values
        assert np.max(np.abs(out.values - expected)) <= 5e-15

    def test_lattice_size_is_alias_free_even_and_holds_the_crop(self):
        for n in range(2, 5001):
            m = _lattice_size(n)
            assert m % 2 == 0 and m >= n
            assert m >= (1.0 + math.sqrt(2.0)) * (n - 1) / 2
            assert _fast_len(m // 2) == m // 2
        assert [_lattice_size(n) for n in (64, 256, 512)] == [80, 320, 640]

    def test_fast_len_is_smallest_5_smooth(self):
        smooth = sorted(
            2**i * 3**j * 5**k
            for i in range(14) for j in range(9) for k in range(7)
            if 2**i * 3**j * 5**k <= 2**13
        )
        expected = [next(s for s in smooth if s >= n) for n in range(1, 5001)]
        assert [_fast_len(n) for n in range(1, 5001)] == expected


class TestConvolution:
    def test_vacuum_is_a_fixed_point_any_eta(self):
        grid = grid_from_mixture(VACUUM, 8.0, 256)
        for eta in [0.25, 0.5, 0.8]:
            out = convolve_beamsplitter(grid, grid, eta)
            assert np.max(np.abs(out.values - grid.values)) <= 1e-10

    def test_one_photon_with_vacuum_gives_husimi(self):
        ga = grid_from_mixture(fock_mixture(1), 8.0, 256)
        gv = grid_from_mixture(VACUUM, 8.0, 256)
        out = convolve_beamsplitter(ga, gv, 0.5)
        axis = out.axis()
        x, q = np.meshgrid(axis, axis, indexing="ij")
        r2 = x * x + q * q
        expected = r2 * np.exp(-r2) / math.pi
        assert np.max(np.abs(out.values - expected)) <= 1e-10

    def test_two_single_photons_give_sigma_11(self):
        ga = grid_from_mixture(fock_mixture(1), 8.0, 256)
        out = convolve_beamsplitter(ga, ga, 0.5)
        expected = radial_values(sigma_coefficients(1, 1).coeffs, 8.0, 256)
        assert np.max(np.abs(out.values - expected)) <= 1e-10

    def test_matches_direct_summation_probe(self):
        # same integral, discretized instead as a lattice cross-correlation
        # of the exactly sampled rescaled fields (the discrete sum is
        # evaluated by FFT, which is numerically identical to direct
        # summation); the two discretizations must agree to 1e-8
        eta = 0.5
        extent, resolution = 8.0, 128
        pa = PhotonMixture([0.2, 0.5, 0.3])
        pb = PhotonMixture([0.7, 0.1, 0.2])
        ga = grid_from_mixture(pa, extent, resolution)
        gb = grid_from_mixture(pb, extent, resolution)
        out = convolve_beamsplitter(ga, gb, eta)

        h = ga.step
        axis = ga.axis()
        # rescaled input field sampled exactly on the lattice
        x, q = np.meshgrid(axis, axis, indexing="ij")
        r = np.sqrt(x * x + q * q)
        field_a = radial_wigner(pa, r / math.sqrt(eta)) / eta
        # second field on the difference lattice (i - g) * h, which is
        # where the direct sum S[i] = h^2 sum_g A[g] B[(i-g) h] needs it
        diff_axis = (np.arange(2 * resolution - 1) - (resolution - 1)) * h
        dx, dq = np.meshgrid(diff_axis, diff_axis, indexing="ij")
        dr = np.sqrt(dx * dx + dq * dq)
        field_b = radial_wigner(pb, dr / math.sqrt(1 - eta)) / (1 - eta)
        full = fftconvolve(field_a, field_b, mode="full") * h * h
        start = resolution - 1  # S[i] = full[i + N - 1]
        direct = full[start : start + resolution, start : start + resolution]
        assert np.max(np.abs(out.values - direct)) <= 1e-8

    def test_output_positivity_for_random_products(self, rng):
        for _ in range(50):
            la, lb = rng.integers(1, 7, size=2)
            pa = PhotonMixture(rng.dirichlet(np.ones(la)))
            pb = PhotonMixture(rng.dirichlet(np.ones(lb)))
            ga = grid_from_mixture(pa, 8.0, 128)
            gb = grid_from_mixture(pb, 8.0, 128)
            out = convolve_beamsplitter(ga, gb, 0.5)
            assert out.values.min() >= -1e-9

    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("n", [127, 128, 256])
    def test_orientation_on_displaced_squeezed_gaussians(self, rng, n, eta):
        # radial inputs cannot tell x from p or k from -k; these can
        a, b = displaced_squeezed_gaussian(rng), displaced_squeezed_gaussian(rng)
        out = convolve_beamsplitter(grid_from_gaussian(a, 8.0, n),
                                    grid_from_gaussian(b, 8.0, n), eta)
        mixed = GaussianState(math.sqrt(eta) * a.mean + math.sqrt(1.0 - eta) * b.mean,
                              eta * a.cov + (1.0 - eta) * b.cov)
        expected = grid_from_gaussian(mixed, 8.0, n).values
        assert np.max(np.abs(out.values - expected)) <= 1e-7
        assert np.max(np.abs(out.values.T - expected)) > 1e-3

    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n", [128, 256])
    def test_no_image_wraps_into_the_window(self, n, eta):
        # equal inputs put the output at x = 6, past which its tail meets the
        # edge at 8; a period under (1 + sqrt(2)) extent wraps an image of the
        # inputs' tails back into the window.  Measured 1.7e-13 to 3.0e-13 on
        # the 2n lattice and the alias-free one, 3.9e-6 to 7.6e-6 with m ~ n
        cov = np.diag([0.2, 1.25])
        state = GaussianState([6.0 / (math.sqrt(eta) + math.sqrt(1.0 - eta)), 0.0], cov)
        grid = grid_from_gaussian(state, 8.0, n)
        out = convolve_beamsplitter(grid, grid, eta)
        axis = out.axis()
        expected = gaussian_wigner(GaussianState([6.0, 0.0], cov), axis[:, None], axis[None, :])
        assert np.max(np.abs(out.values - expected)) <= 1e-9

    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.75])
    def test_benchmark_size_pairs_match_exact_outputs(self, rng, eta):
        # 256**2 at extent 8, as the benchmark convolves.  Measured on the 2n
        # lattice and the alias-free one: Fock pairs 5.4e-15 and 2.1e-14 from
        # the Fock-basis output, Gaussian pairs 7.1e-13 on both from the analytic
        pairs = [(fock_mixture(7), fock_mixture(7))]
        pairs += [tuple(PhotonMixture(rng.dirichlet(np.ones(k))) for k in rng.integers(1, 9, 2))
                  for _ in range(3)]
        for pa, pb in pairs:
            out = convolve_beamsplitter(grid_from_mixture(pa, 8.0, 256),
                                        grid_from_mixture(pb, 8.0, 256), eta)
            expected = grid_from_mixture(mix_through_beamsplitter(pa, pb, eta), 8.0, 256).values
            assert np.max(np.abs(out.values - expected)) <= 5e-14
        for _ in range(4):
            a, b = displaced_squeezed_gaussian(rng), displaced_squeezed_gaussian(rng)
            out = convolve_beamsplitter(grid_from_gaussian(a, 8.0, 256),
                                        grid_from_gaussian(b, 8.0, 256), eta)
            mixed = GaussianState(math.sqrt(eta) * a.mean + math.sqrt(1.0 - eta) * b.mean,
                                  eta * a.cov + (1.0 - eta) * b.cov)
            expected = grid_from_gaussian(mixed, 8.0, 256).values
            assert np.max(np.abs(out.values - expected)) <= 1.5e-12

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_doubly_even_pairs_match_the_general_path_and_exact_outputs(self, rng, monkeypatch, n):
        # measured over 8 Fock and 8 centred Gaussian pairs per size: at most
        # 7.1e-15 from the exact output grids (the general path 1.8e-14)
        # and 1.6e-14 from the general path
        pairs = [(fock_mixture(7), fock_mixture(7)), (fock_mixture(3), VACUUM),
                 tuple(PhotonMixture(rng.dirichlet(np.ones(k))) for k in rng.integers(1, 9, 2))]
        inputs, exact = [], []
        for (pa, pb), eta in zip(pairs, (0.25, 0.5, 0.75)):
            inputs.append((grid_from_mixture(pa, 8.0, n), grid_from_mixture(pb, 8.0, n), eta))
            exact.append(grid_from_mixture(mix_through_beamsplitter(pa, pb, eta), 8.0, n).values)
        ca, cb = (0.5 * np.diag([math.exp(s), math.exp(-s)]) for s in rng.uniform(-0.6, 0.6, 2))
        centred = [GaussianState([0.0, 0.0], c) for c in (ca, cb, 0.3 * ca + 0.7 * cb)]
        inputs.append((grid_from_gaussian(centred[0], 8.0, n),
                       grid_from_gaussian(centred[1], 8.0, n), 0.3))
        exact.append(grid_from_gaussian(centred[2], 8.0, n).values)
        assert all(_doubly_even(g.values) for ga, gb, _ in inputs for g in (ga, gb))
        even = [convolve_beamsplitter(*args).values for args in inputs]
        monkeypatch.setattr(beamsplitter, "_doubly_even", lambda x: False)
        general = [convolve_beamsplitter(*args).values for args in inputs]
        for got, other, want in zip(even, general, exact):
            assert np.array_equal(got, got[::-1])
            assert np.max(np.abs(got - want)) <= 1.5e-14
            assert np.max(np.abs(got - other)) <= 3e-14

    def test_rejects_mismatched_grids(self):
        ga = grid_from_mixture(VACUUM, 8.0, 128)
        gb = grid_from_mixture(VACUUM, 8.0, 64)
        with pytest.raises(GridMismatchError):
            convolve_beamsplitter(ga, gb, 0.5)

    def test_rejects_bad_eta(self):
        ga = grid_from_mixture(VACUUM, 8.0, 64)
        with pytest.raises(ValueError):
            convolve_beamsplitter(ga, ga, 0.0)
        with pytest.raises(ValueError):
            convolve_beamsplitter(ga, ga, 1.0)

    @pytest.mark.parametrize("pair", ["fock", "gaussian"])
    def test_transient_memory(self, monkeypatch, rng, pair):
        # both passes along p, held until the band is read, each input's
        # kept rows, one block's workspace, the rows of the way back and the
        # output: measured on one worker at 512**2, 7.0 MB for the Fock pair
        # (two real quarter lattices) and 7.4 MB for the general Gaussian
        # pair (two half lattices), where every row took 7.5 and 10.7 MB
        monkeypatch.setattr(beamsplitter, "_WORKERS", 1)
        if pair == "fock":
            ga = grid_from_mixture(PhotonMixture([0.2, 0.5, 0.3]), 8.0, 512)
            gb = grid_from_mixture(VACUUM, 8.0, 512)
        else:
            ga, gb = (grid_from_gaussian(displaced_squeezed_gaussian(rng), 8.0, 512) for _ in "ab")
            assert not (_doubly_even(ga.values) or _doubly_even(gb.values))  # the general path
        convolve_beamsplitter(ga, gb, 0.5)
        tracemalloc.start()
        try:
            convolve_beamsplitter(ga, gb, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18e6


def full_lattice(grid, scale, m):
    """An input's half lattice on every row, rescaled by scale, through the
    convolution's own passes; a quarter lattice is widened by its mirror."""
    n, h = grid.resolution, grid.step
    dk = 2.0 * math.pi / (m * h)
    even = _doubly_even(grid.values)
    args = (-grid.extent, h, -scale * (m // 2) * dk, scale * dk, m)
    t = beamsplitter._pass_along_p(grid.values, even, *args)
    lattice = beamsplitter._pass_along_x(t, 0, *args)
    return t, lattice[:, np.r_[: m // 2 + 1, m // 2 - 1 : 0 : -1]] if even else lattice


def way_back(product, grid, m):
    """Output values of a product half lattice through one irfft2, the
    transform convolve_beamsplitter takes in two steps."""
    n, h = grid.resolution, grid.step
    dk = 2.0 * math.pi / (m * h)
    phase = np.exp(-1j * grid.extent * dk * (np.arange(m) - m // 2))
    spectrum = product * phase[: m // 2 + 1, None] * phase
    sign = (m * h * h * dk / (2.0 * math.pi)) * (-1.0) ** np.arange(n)
    return (np.fft.irfft2(spectrum, s=(m, m), axes=(1, 0))[:n, :n] * np.outer(sign, sign)).T


class TestBand:
    @pytest.mark.parametrize("n", [256, 512])
    def test_dropped_rows_stay_under_the_bound(self, rng, monkeypatch, n):
        # the benchmark's sizes at extent 8: a Fock pair, a mixture with the
        # vacuum, a Gaussian pair and a Gaussian with the vacuum.  The rows
        # below lo, pushed through the way back on their own, move no output
        # value by more than their summed bound, at most 2**-60.  Measured:
        # moves of 1.3e-21 to 1.2e-20 under bounds of 1.9e-19 to 7.5e-19,
        # with 45 to 69 of 161 rows kept at 256**2 and 46 to 71 of 321 at 512**2
        m, h = _lattice_size(n), 16.0 / (n - 1)
        vacuum = grid_from_mixture(VACUUM, 8.0, n)
        mixture = PhotonMixture(rng.dirichlet(np.ones(8)))
        pairs = [(grid_from_mixture(fock_mixture(7), 8.0, n), grid_from_mixture(fock_mixture(7), 8.0, n)),
                 (grid_from_mixture(mixture, 8.0, n), vacuum),
                 tuple(grid_from_gaussian(displaced_squeezed_gaussian(rng), 8.0, n) for _ in "ab"),
                 (grid_from_gaussian(displaced_squeezed_gaussian(rng), 8.0, n), vacuum)]
        for (wa, wb), eta in zip(pairs, (0.25, 0.5, 0.75, 0.5)):
            lo = band_start(wa, wb, eta)
            (ta, la), (tb, lb) = (full_lattice(g, s, m) for g, s in
                                  ((wa, math.sqrt(eta)), (wb, math.sqrt(1.0 - eta))))
            # 2 m (h**2 dk / 2 pi)**2 = 2 h**2 / m, as dk h = 2 pi / m
            reach = 2 * h * h / m * np.abs(ta).sum(axis=0) * np.abs(tb).sum(axis=0)
            product = la * lb
            # the one-step way back is the convolution's, uncut
            monkeypatch.setattr(beamsplitter, "BAND_TOL", 0.0)
            assert np.max(np.abs(way_back(product, wa, m) - convolve_beamsplitter(wa, wb, eta).values)) <= 1e-14
            monkeypatch.undo()
            product[lo:] = 0.0
            moved = np.max(np.abs(way_back(product, wa, m)))
            assert moved <= reach[:lo].sum() <= 2.0 ** -60
            # and the cut takes every row it may
            assert 0 < lo < m // 2 and reach[: lo + 1].sum() > 2.0 ** -60

    def test_band_reaching_k_nyq_keeps_every_row(self, rng, monkeypatch):
        # random grids, and a Fock grid at 64**2, hold content up to the
        # Nyquist row: no row is dropped, and the output is the uncut one
        h = 16.0 / 255
        noise = [WignerGrid(r / (r.sum() * h * h), 8.0) for r in (rng.random((256, 256)) for _ in "ab")]
        skewed = grid_from_gaussian(displaced_squeezed_gaussian(rng), 8.0, 64)
        pairs = [(*noise, 0.5), (grid_from_mixture(fock_mixture(3), 8.0, 64), skewed, 0.25)]
        # compare the bare output values: random grids miss the output mass check
        monkeypatch.setattr(beamsplitter, "WignerGrid", lambda values, *args, **kwargs: values)
        assert [band_start(*pair) for pair in pairs] == [0, 0]
        cut = [convolve_beamsplitter(*pair) for pair in pairs]
        monkeypatch.setattr(beamsplitter, "BAND_TOL", 0.0)
        for pair, values in zip(pairs, cut):
            assert np.array_equal(convolve_beamsplitter(*pair), values)


def _convolve_in_child(queue, grid):
    queue.put(convolve_beamsplitter(grid, grid, 0.5).values)


class TestBlockedPasses:
    # 256 and 512 make the passes of 161 and 321 rows along x
    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 127, 129, 256, 512])
    def test_bits_independent_of_blocks_and_workers(self, rng, monkeypatch, n):
        h = 2.0 * 8.0 / (n - 1)
        # a general pair (one of them even in x only), a doubly even pair and
        # a doubly even input against a general one; their random grids keep
        # every row
        shapes = [(mirrored, np.asarray), (doubly_mirrored, doubly_mirrored),
                  (np.asarray, doubly_mirrored)]
        pairs = [[WignerGrid(r / (r.sum() * h * h), 8.0) for r in
                  (shape(rng.random((n, n))) for shape in pair)] for pair in shapes]
        assert [[_doubly_even(g.values) for g in pair] for pair in pairs] == [
            [False, False], [True, True], [False, True]]
        calls = [(*pairs[0], eta) for eta in (0.25, 0.5, 0.75)]
        calls += [(*pairs[1], 0.25), (*pairs[2], 0.75)]
        if 63 <= n <= 256:
            # band-limited pairs, a Fock grid with the vacuum and a skewed
            # Gaussian pair, whose passes along x and way back run on the
            # kept rows only from 127**2 up; left out at 512**2, where they
            # took the test from 3.6 s to 4.3 s (2 cores)
            calls += [(grid_from_mixture(fock_mixture(3), 8.0, n), grid_from_mixture(VACUUM, 8.0, n), 0.5),
                      (*(grid_from_gaussian(displaced_squeezed_gaussian(rng), 8.0, n) for _ in "ab"), 0.25)]
            assert [band_start(*call) > 0 for call in calls[5:]] == [n >= 127] * 2
        # compare the bare output values: random grids miss the output mass check
        monkeypatch.setattr(beamsplitter, "WignerGrid", lambda values, *args, **kwargs: values)
        pooled = [convolve_beamsplitter(*call) for call in calls]
        for workers in (1, 2, 3):
            monkeypatch.setattr(beamsplitter, "_WORKERS", workers)
            for rows in (1, 7, 2 * n):
                monkeypatch.setattr(beamsplitter, "_BLOCK_ROWS", rows)
                for call, expected in zip(calls, pooled):
                    assert np.array_equal(convolve_beamsplitter(*call), expected)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_spans_tile_the_rows_evenly(self, monkeypatch, workers, block_rows):
        monkeypatch.setattr(beamsplitter, "_WORKERS", workers)
        monkeypatch.setattr(beamsplitter, "_BLOCK_ROWS", block_rows)
        for rows in range(1, 700):
            spans = beamsplitter._spans(rows)
            starts, stops = zip(*spans)
            assert starts == (0,) + stops[:-1] and stops[-1] == rows
            sizes = [stop - start for start, stop in spans]
            assert 1 <= min(sizes) and max(sizes) <= block_rows and max(sizes) - min(sizes) <= 1
            if workers > 1 and len(spans) > 1:
                assert len(spans) % workers == 0 or len(spans) == rows

    def test_spans_of_the_benchmark_passes(self, monkeypatch):
        monkeypatch.setattr(beamsplitter, "_WORKERS", 2)
        sizes = {rows: [stop - start for start, stop in beamsplitter._spans(rows)]
                 for rows in (128, 161, 256, 321, 512)}
        assert sizes == {128: [64, 64], 161: [40, 40, 40, 41], 256: [64] * 4,
                         321: [53, 54, 53, 54, 53, 54], 512: [64] * 8}

    def test_concurrent_callers_share_the_pool(self):
        grids = [grid_from_mixture(fock_mixture(k), 8.0, 128) for k in range(4)]
        expected = [convolve_beamsplitter(g, grids[0], 0.3).values for g in grids]
        results = [None] * len(grids)

        def call(k):
            for _ in range(5):
                results[k] = convolve_beamsplitter(grids[k], grids[0], 0.3).values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(len(grids))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_convolves(self):
        # the parent's call leaves a pool whose threads a forked child lacks
        grid = grid_from_mixture(fock_mixture(1), 8.0, 256)
        expected = convolve_beamsplitter(grid, grid, 0.5).values
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_convolve_in_child, args=(queue, grid))
        child.start()
        try:
            values = queue.get(timeout=60)
            child.join(timeout=60)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert np.array_equal(values, expected)


class TestLogging:
    def test_debug_record_per_call(self, caplog):
        # per call: one record per Bluestein pass, then the convolution's; at
        # 64**2 the vacuum's band reaches k_nyq, so every row is kept
        grid = grid_from_mixture(VACUUM, 8.0, 64)
        with caplog.at_level(logging.DEBUG, logger="wigentropy.beamsplitter"):
            convolve_beamsplitter(grid, grid, 0.3)
            convolve_beamsplitter(grid, grid, 0.5)
        assert {record.levelno for record in caplog.records} == {logging.DEBUG}
        messages = [record.getMessage() for record in caplog.records]
        passes = ["Bluestein pass: 16 FFT rows of length 108 in 1 blocks"] * 2 + [
            "Bluestein pass: 21 FFT rows of length 108 in 1 blocks"] * 2
        assert messages[:4] == messages[5:9] == passes
        assert len(messages) == 10
        for word in ("64x64", "eta 0.3", "lattice 80", "mass", "min W",
                     f"{beamsplitter._WORKERS} workers", "A doubly even, B doubly even",
                     "band from row 0, 41 of 41 rows kept, dropped rows bound 0.000e+00",
                     "41 rows back along x", "32 columns back"):
            assert word in messages[4]
        assert messages[9].startswith("convolved 64x64 grid at eta 0.5")

    def test_debug_record_counts_rows_and_blocks(self, caplog, rng, monkeypatch):
        monkeypatch.setattr(beamsplitter, "_WORKERS", 2)
        vacuum = grid_from_mixture(VACUUM, 8.0, 256)
        skewed = grid_from_gaussian(displaced_squeezed_gaussian(rng), 8.0, 256)
        even_in_x = grid_from_gaussian(GaussianState([0.0, 0.7], np.diag([0.3, 1.2])), 8.0, 256)
        with caplog.at_level(logging.DEBUG, logger="wigentropy.beamsplitter"):
            convolve_beamsplitter(vacuum, skewed, 0.5)
            convolve_beamsplitter(even_in_x, vacuum, 0.5)
            convolve_beamsplitter(vacuum, vacuum, 0.5)
        messages = [record.getMessage() for record in caplog.records]
        # the passes along p, A's then B's, then those along x over the kept
        # rows: 46, 38 and 42 of 161, each pass along x in one block
        even_p = "Bluestein pass: 64 FFT rows of length 432 in 1 blocks"
        general_p = "Bluestein pass: 256 FFT rows of length 432 in 4 blocks"

        def along_x(kept, even):
            rows, size = (-(-kept // 2), 432) if even else (kept, 576)
            return f"Bluestein pass: {rows} FFT rows of length {size} in 1 blocks"

        expected = [
            ([even_p, general_p, along_x(46, True), along_x(46, False)], 115,
             "A doubly even, B general", "256 columns back in 4 blocks"),
            ([general_p, even_p, along_x(38, False), along_x(38, True)], 123,
             "A general, B doubly even", "256 columns back in 4 blocks"),
            ([even_p, even_p, along_x(42, True), along_x(42, True)], 119,
             "A doubly even, B doubly even", "128 columns back in 2 blocks"),
        ]
        assert len(messages) == 5 * len(expected)
        for k, (passes, lo, *words) in enumerate(expected):
            assert messages[5 * k:5 * k + 4] == passes
            message = messages[5 * k + 4]
            kept = 161 - lo
            bound = float(message.split("dropped rows bound ")[1].split(";")[0])
            assert 0.0 < bound <= beamsplitter.BAND_TOL
            for word in words + ["2 workers", f"band from row {lo}, {kept} of 161 rows kept",
                                 f"{kept} rows back along x in 1 blocks"]:
                assert word in message

    def test_quiet_by_default(self, caplog):
        grid = grid_from_mixture(VACUUM, 8.0, 64)
        with caplog.at_level(logging.INFO, logger="wigentropy.beamsplitter"):
            convolve_beamsplitter(grid, grid, 0.5)
            grid_from_mixture(VACUUM, 8.0, 64)
        assert caplog.records == []

    @pytest.mark.parametrize("resolution, radii, chunks", [(64, 528, 1), (65, 561, 1),
                                                           (512, 32896, 9)])
    def test_debug_record_per_sampled_grid(self, caplog, resolution, radii, chunks):
        with caplog.at_level(logging.DEBUG, logger="wigentropy.beamsplitter"):
            grid_from_mixture(VACUUM, 8.0, resolution)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        for word in (f"{resolution}x{resolution}", f"{radii} distinct radii", f"{chunks} chunks"):
            assert word in message


class TestHusimi:
    def test_vacuum(self):
        assert husimi_phase_invariant(VACUUM, 0.0) == pytest.approx(
            1.0 / math.pi, rel=1e-14
        )

    def test_fock_one(self):
        p = fock_mixture(1)
        assert husimi_phase_invariant(p, 0.0) == 0.0
        assert husimi_phase_invariant(p, 1.0) == pytest.approx(
            math.exp(-1.0) / math.pi, rel=1e-13
        )

    def test_normalization(self):
        from scipy.integrate import quad

        for p in [VACUUM, fock_mixture(3), PhotonMixture([0.3, 0.3, 0.4])]:
            value, _ = quad(
                lambda u: math.pi * husimi_phase_invariant(p, math.sqrt(u)),
                0.0,
                200.0,
                limit=400,
            )
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_positive_everywhere(self, rng):
        rs = np.linspace(0.0, 12.0, 200)
        for _ in range(10):
            p = PhotonMixture(rng.dirichlet(np.ones(8)))
            assert np.all(husimi_phase_invariant(p, rs) >= 0.0)

    @pytest.mark.parametrize("r", [1e154, 1.35e154, 1e200])
    def test_radius_whose_square_overflows_reads_zero(self, r):
        # r**2 overflows past r = 1.34e154, where Q has long since underflowed
        # to 0; it once read NaN with an overflow warning there (at 1e154,
        # r**2 = 1e308 is finite).  Radii below keep their values bit for bit
        p = PhotonMixture([0.2, 0.5, 0.3])
        near = [0.0, 0.7, 3.0, 40.0, 1e150]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert husimi_phase_invariant(p, r) == husimi_phase_invariant(VACUUM, r) == 0.0
            got = husimi_phase_invariant(p, np.array(near + [r]))
        assert got[-1] == 0.0 and list(got[:-1]) == [husimi_phase_invariant(p, x) for x in near]


class TestFockOracle:
    def test_balanced_examples(self):
        assert np.allclose(fock_oracle_sigma(1, 0, 0.5).probs, [0.5, 0.5], atol=1e-15)
        assert np.allclose(fock_oracle_sigma(2, 0, 0.5).probs, [0.25, 0.5, 0.25],
                           atol=1e-15)
        assert np.allclose(fock_oracle_sigma(1, 1, 0.5).probs, [0.5, 0.0, 0.5],
                           atol=1e-15)

    def test_transparent_limit_pins_convention(self):
        assert np.allclose(fock_oracle_sigma(1, 0, 1.0).probs, [0.0, 1.0], atol=1e-15)
        assert np.allclose(fock_oracle_sigma(1, 0, 0.0).probs, [1.0, 0.0], atol=1e-15)

    def test_general_eta_single_photon(self):
        for eta in [0.2, 0.5, 0.9]:
            assert np.allclose(
                fock_oracle_sigma(1, 0, eta).probs, [1 - eta, eta], atol=1e-14
            )

    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.75])
    def test_mean_photon_number(self, eta):
        for m, n in [(1, 0), (2, 1), (3, 3), (4, 1)]:
            out = fock_oracle_sigma(m, n, eta)
            assert len(out) == m + n + 1
            assert out.mean_photons == pytest.approx(
                eta * m + (1 - eta) * n, abs=1e-12
            )

    def test_matches_closed_form_at_half(self):
        for m in range(9):
            for n in range(9 - m):
                brute = fock_oracle_sigma(m, n, 0.5).probs
                closed = sigma_coefficients(m, n).coeffs.probs
                assert np.max(np.abs(brute - closed)) <= 1e-12

    def test_truncation_guard(self):
        assert len(fock_oracle_sigma(128, 128, 0.5)) == N_MAX + 1
        with pytest.raises(TruncationError, match="N_MAX"):
            fock_oracle_sigma(128, 129, 0.5)

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
    def test_is_the_normalized_split_column(self, eta):
        # the oracle is the mix of two Fock states: column m of the squared
        # d-matrix from eigh over its fsum, up to the reference's own roundoff
        # (measured 1.7e-15 here, 2.8e-15 over totals <= N_MAX at eta 0.1 to 0.75)
        for total in [0, 1, 2, 7, 13, 29, 64, 127, 200, N_MAX]:
            reference = reference_split_probabilities(total, eta)
            for m in sorted({0, min(1, total), total // 3, total // 2, total}):
                column = reference[:, m]
                expected = column / math.fsum(column.tolist())
                out = fock_oracle_sigma(m, total - m, eta).probs
                assert np.max(np.abs(out - expected)) <= 4e-15

    @pytest.mark.parametrize("eta", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_matches_exact_rationals_up_to_n_max(self, eta):
        for total in [24, 48, 128, N_MAX]:
            for m in sorted({0, 1, total // 3, total // 2, total}):
                exact = np.array([float(f) for f in exact_split_probs(m, total - m, eta)])
                out = fock_oracle_sigma(m, total - m, float(eta)).probs
                assert np.max(np.abs(out - exact)) <= 1e-14

    @pytest.mark.parametrize("eta", [float("nan"), -0.1, 1.1])
    def test_rejects_transmittance_outside_unit_interval(self, eta, sweep_steps):
        with pytest.raises(ValueError, match=r"transmittance must lie in \[0, 1\]"):
            fock_oracle_sigma(2, 1, eta)
        with pytest.raises(ValueError, match=r"transmittance must lie in \[0, 1\]"):
            mix_through_beamsplitter(thermal_mixture(1.0), fock_mixture(3), eta)
        assert sweep_steps == []


class TestOriginValue:
    def test_origin_is_delta_over_pi(self):
        # the splitter output for inputs (m, n) has W(0) = delta_mn / pi
        for m in range(7):
            for n in range(7):
                value = radial_wigner(sigma_coefficients(m, n).coeffs, 0.0)
                expected = (1.0 / math.pi) if m == n else 0.0
                assert value == pytest.approx(expected, abs=1e-10)


class TestChannelMixing:
    def test_reduces_to_sigma_for_pure_inputs(self):
        out = mix_through_beamsplitter(fock_mixture(2), fock_mixture(1), 0.5)
        expected = sigma_coefficients(2, 1).coeffs.probs
        assert np.max(np.abs(out.probs - expected)) <= 1e-13

    def test_pure_inputs_at_high_photon_number(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("the Fock route must not diagonalize")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for total in [48, 60, 96, 128]:
            for m in sorted({0, total // 3, total // 2}):
                out = mix_through_beamsplitter(fock_mixture(m), fock_mixture(total - m), 0.5)
                expected = sigma_coefficients(m, total - m).coeffs.probs
                assert np.max(np.abs(out.probs - expected)) <= 1e-14

    def test_truncation_guard(self, request):
        out = mix_through_beamsplitter(fock_mixture(128), fock_mixture(128), 0.5)
        assert len(out) == N_MAX + 1
        sweep_steps = request.getfixturevalue("sweep_steps")
        with pytest.raises(TruncationError, match="N_MAX"):
            mix_through_beamsplitter(fock_mixture(128), fock_mixture(129), 0.5)
        assert sweep_steps == []

    @pytest.mark.parametrize("eta", [Fraction(1, 1000), Fraction(1, 4), Fraction(1, 2),
                                     Fraction(3, 4), Fraction(999, 1000)])
    def test_mixtures_match_exact_rationals(self, eta, rng):
        # sum over a, b of pa[a] pb[b] times the exact split of |a, b>;
        # measured at most 3.3e-16 over 100 pairs per eta
        for _ in range(12):
            pa, pb = (PhotonMixture(rng.dirichlet(np.ones(n))) for n in rng.integers(1, 7, 2))
            exact = [Fraction(0)] * (len(pa) + len(pb) - 1)
            for a, wa in enumerate(pa.probs):
                for b, wb in enumerate(pb.probs):
                    for k, f in enumerate(exact_split_probs(a, b, eta)):
                        exact[k] += Fraction(wa) * Fraction(wb) * f
            out = mix_through_beamsplitter(pa, pb, float(eta)).probs
            assert np.max(np.abs(out - [float(f) for f in exact])) <= 1e-15

    def test_thermal_stays_thermal(self):
        from wigentropy.mixtures import thermal_mixture

        thermal = thermal_mixture(1.0)
        out = mix_through_beamsplitter(thermal, thermal, 0.3)
        expected = thermal.padded(len(out))
        assert np.max(np.abs(out.probs - expected)) <= 1e-10


class TestWehrlBridge:
    def test_vacuum(self):
        left, right = wehrl_bridge_check(VACUUM)
        assert left == pytest.approx(math.log(math.pi) + 1.0, abs=1e-9)
        assert right == pytest.approx(math.log(math.pi) + 1.0, abs=1e-9)

    def test_fock_one_frozen_value(self):
        left, right = wehrl_bridge_check(fock_mixture(1))
        assert left == pytest.approx(WEHRL_FOCK_1, abs=1e-8)
        assert right == pytest.approx(WEHRL_FOCK_1, abs=1e-8)

    def test_fock_two_routes_agree(self):
        left, right = wehrl_bridge_check(fock_mixture(2))
        assert left == pytest.approx(right, abs=1e-8)
