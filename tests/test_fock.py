import math
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite

from conftest import reference_laguerre_scaled_all, reference_wavefunction_table
from wigentropy.beamsplitter import fock_oracle_sigma, mix_through_beamsplitter
from wigentropy.exceptions import TruncationError
from wigentropy.fock import (
    N_MAX,
    check_photon_number,
    density_entropy,
    laguerre_scaled_all,
    marginal_density,
    marginal_entropy,
    tail_cutoff,
    wavefunction,
    wavefunction_table,
    wigner_fock,
)
from wigentropy.mixtures import (
    THERMAL_MAX_MEAN,
    PhotonMixture,
    extremal_passive,
    extremal_passive_from_sigmas,
    sigma_coefficients,
    thermal_mixture,
)
from wigentropy.quadrature import QuadratureSpec, integrate

# independent values, frozen from analytic formulas cross-checked by
# high-resolution quadrature (see the derivations in the test bodies)
H_RHO_0 = 0.5 * math.log(math.pi * math.e)                     # 1.0723649429247
H_RHO_1 = math.log(2.0) + np.euler_gamma + 0.5 * math.log(math.pi) - 0.5
# = 1.3427277883861781

TIGHT = QuadratureSpec(1e-12)


class TestWavefunction:
    def test_vacuum_peak(self):
        assert wavefunction(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-14)

    def test_first_state_node(self):
        assert wavefunction(1, 0.0) == 0.0

    def test_second_state_value(self):
        # psi_2(1) = pi^(-1/4) * (1/2) * 2^(-1/2) * H_2(1) * e^(-1/2), H_2(1) = 2
        expected = math.pi**-0.25 * 0.5 * 2**-0.5 * 2.0 * math.exp(-0.5)
        assert wavefunction(2, 1.0) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.3221441825567378, rel=1e-12)

    @pytest.mark.parametrize("n", range(9))
    def test_matches_hermite_formula(self, n):
        for x in np.linspace(-4, 4, 17):
            direct = (
                math.pi**-0.25
                * 2 ** (-n / 2)
                * math.exp(-0.5 * math.lgamma(n + 1))
                * eval_hermite(n, x)
                * math.exp(-0.5 * x * x)
            )
            assert wavefunction(n, x) == pytest.approx(direct, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 5, 10, 40])
    def test_normalization(self, n):
        cut = tail_cutoff(n)
        value, _ = quad(lambda x: marginal_density(n, x), -cut, cut, limit=400)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_table_matches_scalar(self):
        xs = np.linspace(-3, 3, 7)
        table = wavefunction_table(6, xs)
        for n in range(7):
            for j, x in enumerate(xs):
                assert table[n, j] == wavefunction(n, float(x))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            wavefunction(-1, 0.0)
        with pytest.raises(ValueError):
            wavefunction(N_MAX + 1, 0.0)


class TestWignerFock:
    def test_vacuum_origin(self):
        assert wigner_fock(0, 0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_one_photon_origin(self):
        assert wigner_fock(1, 0.0, 0.0) == pytest.approx(-1.0 / math.pi, rel=1e-14)

    def test_two_photon_value(self):
        # L_2(2) = 2 - 4 + 1 = -1
        expected = -math.exp(-1.0) / math.pi
        assert wigner_fock(2, 1.0, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_rotation_invariance(self):
        for n in range(6):
            a = wigner_fock(n, 0.6, 0.8)
            b = wigner_fock(n, 1.0, 0.0)
            c = wigner_fock(n, 0.0, -1.0)
            assert a == pytest.approx(b, rel=1e-12)
            assert b == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("n", range(11))
    def test_marginal_consistency(self, n):
        # integral over p of W_n(x, p) must recover |psi_n(x)|^2
        for x in [0.0, 0.5, 1.0, 2.0]:
            value, _ = quad(
                lambda p: wigner_fock(n, x, p), -tail_cutoff(n), tail_cutoff(n),
                limit=400,
            )
            assert value == pytest.approx(marginal_density(n, x), abs=1e-8)

    @pytest.mark.parametrize("n", range(11))
    def test_normalization(self, n):
        value, _ = quad(
            lambda u: math.pi * wigner_fock(n, math.sqrt(u), 0.0),
            0.0,
            tail_cutoff(n) ** 2,
            limit=400,
        )
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_overlap_orthonormality(self):
        # 2 pi * double integral of W_m W_n = delta_mn
        for m in range(7):
            for n in range(m, 7):
                value, _ = quad(
                    lambda u: 2.0
                    * math.pi**2
                    * wigner_fock(m, math.sqrt(u), 0.0)
                    * wigner_fock(n, math.sqrt(u), 0.0),
                    0.0,
                    120.0,
                    limit=600,
                )
                assert value == pytest.approx(1.0 if m == n else 0.0, abs=1e-7)

    def test_bounded_by_inverse_pi(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-6, 6, 200)
        ps = rng.uniform(-6, 6, 200)
        for n in range(0, 30, 3):
            values = wigner_fock(n, xs, ps)
            assert np.max(np.abs(values)) <= 1.0 / math.pi + 1e-12

    @pytest.mark.parametrize("x, p", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0),
                                      (0.0, math.nan), ([0.5, math.inf], 1.0),
                                      (np.zeros((2, 2)), np.full((2, 2), math.nan))])
    def test_refuses_non_finite_coordinates(self, x, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                wigner_fock(3, x, p)


#: inputs of every shape the kernels take: 0-d, 1-D with the origin and far
#: tails, and 2-D
KERNEL_INPUTS = {
    "0-d": np.float64(1.7),
    "0-d-origin": 0.0,
    "1-D": np.concatenate(([0.0], np.linspace(1e-3, 60.0, 97), [800.0])),
    "2-D": np.linspace(0.0, 30.0, 24).reshape(4, 6),
}


class TestKernelsBitwise:
    """The buffered recurrences do the allocating ones' operations in the same order."""

    @pytest.mark.parametrize("nmax", [0, 1, 2, 40, 256])
    @pytest.mark.parametrize("d", [0, 3])
    @pytest.mark.parametrize("shape", KERNEL_INPUTS)
    def test_laguerre_table(self, nmax, d, shape):
        t = KERNEL_INPUTS[shape]
        got = laguerre_scaled_all(nmax, t, d)
        want = reference_laguerre_scaled_all(nmax, t, d)
        assert got.shape == want.shape == (nmax + 1,) + np.shape(t)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nmax", [0, 1, 2, 40, 256])
    @pytest.mark.parametrize("shape", KERNEL_INPUTS)
    def test_wavefunction_table(self, nmax, shape):
        x = KERNEL_INPUTS[shape]
        x = -x if shape == "2-D" else x  # odd functions of x: negative abscissae too
        got = wavefunction_table(nmax, x)
        want = reference_wavefunction_table(nmax, x)
        assert got.shape == want.shape == (nmax + 1,) + np.shape(x)
        assert got.tobytes() == want.tobytes()

    def test_strided_input(self):
        t = np.linspace(0.0, 40.0, 64)[::3]
        x = np.linspace(-8.0, 8.0, 64)[::3]
        assert laguerre_scaled_all(40, t, 3).tobytes() == \
            reference_laguerre_scaled_all(40, t, 3).tobytes()
        assert wavefunction_table(40, x).tobytes() == reference_wavefunction_table(40, x).tobytes()


class TestMarginalEntropy:
    def test_vacuum_value(self):
        assert marginal_entropy(0, TIGHT) == pytest.approx(H_RHO_0, abs=1e-10)

    def test_vacuum_value_at_default_tolerance(self):
        assert marginal_entropy(0) == pytest.approx(H_RHO_0, abs=1e-15)

    # smooth densities at 1e-14; densities with nodes at their measured
    # default-tolerance error (9.1e-14) with headroom
    @pytest.mark.parametrize("probs, bound", [
        ([1.0], 1e-14),
        ([0.5, 0.3, 0.2], 1e-14),
        ([0.1, 0.2, 0.3, 0.4], 1e-14),
        ([0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0], 1e-14),
        (np.eye(2)[1], 1e-14),
        (np.eye(8)[7], 1.5e-13),
        (np.eye(21)[20], 1.5e-13),
    ], ids=["vacuum", "mix3", "mix4", "padded", "fock1", "fock7", "fock20"])
    def test_half_line_matches_full_line(self, probs, bound):
        # -integral of rho ln rho over the whole line at tight tolerances,
        # with no density cut to zero but exact zeros
        probs = np.asarray(probs, dtype=float)
        nmax = probs.size - 1
        cut = tail_cutoff(nmax)
        dominant = int(np.argmax(probs))
        nodes = np.polynomial.hermite.hermgauss(dominant)[0] if dominant > 0 else None

        def integrand(x):
            rho = probs @ (wavefunction_table(nmax, x) ** 2)
            positive = rho > 0.0
            return np.where(positive, -rho * np.log(np.where(positive, rho, 1.0)), 0.0)

        full_line = integrate(integrand, -cut, cut, QuadratureSpec(1e-15), points=nodes)
        assert density_entropy(probs) == pytest.approx(full_line, abs=bound)

    def test_one_photon_frozen_oracle(self):
        # analytic: ln 2 + gamma + ln(pi)/2 - 1/2, cross-checked by quadrature
        assert marginal_entropy(1, TIGHT) == pytest.approx(H_RHO_1, abs=1e-10)

    @pytest.mark.parametrize("n", range(21))
    def test_uncertainty_bound(self, n):
        assert 2.0 * marginal_entropy(n) >= math.log(math.pi) + 1.0 - 1e-9

    def test_monotone_in_n_observed(self):
        values = [marginal_entropy(n) for n in range(8)]
        assert all(b > a for a, b in zip(values, values[1:]))


# every route that takes a photon number n; each refuses N_MAX + 1 before any work
PHOTON_NUMBER_ROUTES = {
    "check_photon_number": check_photon_number,
    "extremal_passive": extremal_passive,
    "extremal_passive_from_sigmas": extremal_passive_from_sigmas,
    "sigma_coefficients-m": lambda n: sigma_coefficients(n, 0),
    "sigma_coefficients-n": lambda n: sigma_coefficients(0, n),
    "fock_oracle_sigma-m": lambda n: fock_oracle_sigma(n, 0, 0.5),
    "fock_oracle_sigma-n": lambda n: fock_oracle_sigma(0, n, 0.5),
    "wavefunction": lambda n: wavefunction(n, 0.0),
    "wavefunction_table": lambda n: wavefunction_table(n, 0.0),
    "wigner_fock": lambda n: wigner_fock(n, 0.0, 0.0),
    "marginal_entropy": marginal_entropy,
}

# each route past the limit: photon numbers, vectors and totals one above it,
# and a thermal mean whose tail cut would end past it
PAST_THE_LIMIT = {
    **{name: partial(route, N_MAX + 1) for name, route in PHOTON_NUMBER_ROUTES.items()},
    "PhotonMixture": lambda: PhotonMixture(np.full(N_MAX + 2, 1.0 / (N_MAX + 2))),
    "sigma_coefficients-total": lambda: sigma_coefficients(128, 129),
    "mix_through_beamsplitter": lambda: mix_through_beamsplitter(
        PhotonMixture(np.eye(1, N_MAX + 1, N_MAX)[0]), PhotonMixture([0.0, 1.0]), 0.5),
    "thermal_mixture": lambda: thermal_mixture(THERMAL_MAX_MEAN * (1.0 + 1e-9)),
}


class TestPhotonNumberLimit:
    """One guard holds N_MAX for every route, with one error type."""

    def test_truncation_error_is_a_value_error(self):
        assert issubclass(TruncationError, ValueError)

    @pytest.mark.parametrize("name", PAST_THE_LIMIT)
    def test_past_the_limit_raises_truncation_error(self, name):
        with pytest.raises(TruncationError, match="N_MAX"):
            PAST_THE_LIMIT[name]()

    @pytest.mark.parametrize("name", PHOTON_NUMBER_ROUTES)
    def test_negative_raises_plain_value_error(self, name):
        with pytest.raises(ValueError, match="non-negative") as info:
            PHOTON_NUMBER_ROUTES[name](-1)
        assert not isinstance(info.value, TruncationError)
