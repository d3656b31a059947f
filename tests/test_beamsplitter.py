import logging
import math
import multiprocessing
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.signal import fftconvolve

from conftest import exact_split_probs, fock_mixture
from wigentropy import beamsplitter
from wigentropy.beamsplitter import (
    WignerGrid,
    _fast_len,
    _half_lattice_dft,
    _lattice_dft,
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
from wigentropy.gaussian import GaussianState, gaussian_wigner
from wigentropy.mixtures import PhotonMixture, sigma_coefficients, thermal_mixture
from wigentropy.positivity import radial_wigner

VACUUM = PhotonMixture([1.0])
WEHRL_FOCK_1 = math.log(math.pi) + 1.0 + np.euler_gamma  # frozen oracle 2.7219455508


def radial_values(p, extent, resolution):
    """The meshgrid formula grid_from_mixture replaced: W at every grid point."""
    axis = np.linspace(-extent, extent, resolution)
    x, q = np.meshgrid(axis, axis, indexing="ij")
    return radial_wigner(p, np.sqrt(x * x + q * q))


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
        (math.nan, 64), (math.inf, 64), (-math.inf, 64),
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
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n, m", [(7, 12), (12, 7), (64, 33), (33, 64), (100, 200), (1, 5)])
    def test_matches_direct_sum(self, rng, n, m, sign):
        x0, h, k0, dk = -1.3, 0.21, 0.7, 0.037
        x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        g, j = np.arange(n), np.arange(m)
        direct = x @ np.exp(sign * 1j * np.outer(x0 + g * h, k0 + j * dk))
        out = _lattice_dft(x, x0, h, k0, dk, m, sign)
        assert out.shape == (3, m)
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [7, 12])
    def test_half_lattice_matches_direct_sum(self, rng, n):
        x0, h = -1.3, 0.21
        dk = math.pi / (n * h)
        k0 = -n * dk
        x = rng.normal(size=(n, n))
        xi = x0 + np.arange(n) * h
        k = k0 + np.arange(2 * n) * dk
        # direct[j1, j0] = sum_{g0, g1} x[g0, g1] exp(-i (xi_g0 k_j0 + xi_g1 k_j1))
        phase = np.exp(-1j * (xi[:, None, None, None] * k[None, None, None, :]
                              + xi[None, :, None, None] * k[None, None, : n + 1, None]))
        direct = np.einsum("ab,abjk->jk", x, phase)
        out = _half_lattice_dft(x, x0, h, k0, dk)
        assert out.shape == (n + 1, 2 * n)
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))

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

    def test_transient_memory(self, monkeypatch):
        # one held spectrum, one pass-1 output, one block's workspace: measured
        # 15.6 MB on one worker at 512**2, where both spectra, a transposed copy
        # and the full phase product took 27.4 MB
        monkeypatch.setattr(beamsplitter, "_WORKERS", 1)
        ga = grid_from_mixture(PhotonMixture([0.2, 0.5, 0.3]), 8.0, 512)
        gb = grid_from_mixture(VACUUM, 8.0, 512)
        convolve_beamsplitter(ga, gb, 0.5)
        tracemalloc.start()
        try:
            convolve_beamsplitter(ga, gb, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18e6


def _convolve_in_child(queue, grid):
    queue.put(convolve_beamsplitter(grid, grid, 0.5).values)


class TestBlockedPasses:
    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 127, 129, 256])
    def test_bits_independent_of_blocks_and_workers(self, rng, monkeypatch, n):
        h = 2.0 * 8.0 / (n - 1)
        a, b = (WignerGrid(r / (r.sum() * h * h), 8.0) for r in rng.random((2, n, n)))
        # compare the bare output values: random grids miss the output mass check
        monkeypatch.setattr(beamsplitter, "WignerGrid", lambda values, *args, **kwargs: values)
        etas = (0.25, 0.5, 0.75)
        pooled = [convolve_beamsplitter(a, b, eta) for eta in etas]
        monkeypatch.setattr(beamsplitter, "_WORKERS", 1)
        for rows in (1, 7, 2 * n):
            monkeypatch.setattr(beamsplitter, "_BLOCK_ROWS", rows)
            for eta, expected in zip(etas, pooled):
                assert np.array_equal(convolve_beamsplitter(a, b, eta), expected)

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
        grid = grid_from_mixture(VACUUM, 8.0, 64)
        with caplog.at_level(logging.DEBUG, logger="wigentropy.beamsplitter"):
            convolve_beamsplitter(grid, grid, 0.3)
            convolve_beamsplitter(grid, grid, 0.5)
        assert len(caplog.records) == 2
        record = caplog.records[0]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        for word in ("64x64", "eta 0.3", "FFT lengths 128 and 192", "mass", "min W",
                     f"{beamsplitter._WORKERS} workers", "blocks of 64 rows"):
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
        # the oracle is the mix of two Fock states; it must keep the bits of
        # column m of the split probabilities over their fsum
        for total in [0, 1, 2, 7, 13, 29, 64, 127, 200, N_MAX]:
            for m in sorted({0, min(1, total), total // 3, total // 2, total}):
                column = beamsplitter._split_probabilities(total, eta)[:, m]
                expected = column / math.fsum(column.tolist())
                assert np.array_equal(fock_oracle_sigma(m, total - m, eta).probs, expected)

    @pytest.mark.parametrize("eta", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_matches_exact_rationals_up_to_n_max(self, eta):
        for total in [24, 48, 128, N_MAX]:
            for m in sorted({0, 1, total // 3, total // 2, total}):
                exact = np.array([float(f) for f in exact_split_probs(m, total - m, eta)])
                out = fock_oracle_sigma(m, total - m, float(eta)).probs
                assert np.max(np.abs(out - exact)) <= 1e-14


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
        calls = []
        split = beamsplitter._split_probabilities

        def counted(total, eta):
            calls.append(total)
            return split(total, eta)

        monkeypatch.setattr(beamsplitter, "_split_probabilities", counted)
        for total in [48, 60, 96, 128]:
            for m in sorted({0, total // 3, total // 2}):
                calls.clear()
                out = mix_through_beamsplitter(fock_mixture(m), fock_mixture(total - m), 0.5)
                expected = sigma_coefficients(m, total - m).coeffs.probs
                assert np.max(np.abs(out.probs - expected)) <= 1e-14
                assert calls == [total]

    def test_truncation_guard(self, monkeypatch):
        out = mix_through_beamsplitter(fock_mixture(128), fock_mixture(128), 0.5)
        assert len(out) == N_MAX + 1
        monkeypatch.delattr(beamsplitter, "_split_probabilities")
        with pytest.raises(TruncationError, match="N_MAX"):
            mix_through_beamsplitter(fock_mixture(128), fock_mixture(129), 0.5)

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
