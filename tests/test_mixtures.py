import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import compose_passive, exact_sigma_probs
from wigentropy.beamsplitter import fock_oracle_sigma
from wigentropy.exceptions import NotPassiveError, TruncationError
from wigentropy.fock import N_MAX
from wigentropy.gaussian import GaussianState, SymplecticMap
from wigentropy.mixtures import (
    THERMAL_MAX_MEAN,
    PassiveDecomposition,
    PhotonMixture,
    extremal_passive,
    extremal_passive_from_sigmas,
    is_passive,
    passive_decompose,
    sigma_coefficients,
    thermal_mixture,
)
from wigentropy.verification import _random_passive


# each constructor takes its documented shape and real numbers only, so numpy
# never reshapes or casts a malformed input into a state; booleans among
# numbers are cast to numbers, [0, True] to the Fock state |1>
@pytest.mark.parametrize("make", [
    lambda: PhotonMixture("1"),
    lambda: PhotonMixture([True]),
    lambda: PhotonMixture([0, True]),
    lambda: PhotonMixture([np.False_, 1.0]),
    lambda: PhotonMixture(["0.5", "0.5"]),
    lambda: PhotonMixture([[0.5], [0.5]]),
    lambda: PhotonMixture(1.0),
    lambda: PhotonMixture([0.5 + 0j, 0.5]),
    lambda: PassiveDecomposition([[1.0]]),
    lambda: PassiveDecomposition([True]),
    lambda: PassiveDecomposition([0, True]),
    lambda: GaussianState([0, 0], [0.5, 0, 0, 0.5]),
    lambda: GaussianState([[0], [0]], [[0.5, 0], [0, 0.5]]),
    lambda: GaussianState(["0", "0"], [[0.5, 0], [0, 0.5]]),
    lambda: GaussianState([0, 0], [[True, False], [False, True]]),
    lambda: GaussianState([0, True], [[0.5, 0], [0, 0.5]]),
    lambda: GaussianState([0, 0], [[0.5, False], [0, 0.5]]),
    lambda: SymplecticMap([1.0, 0.0, 0.0, 1.0]),
    lambda: SymplecticMap([[True, 0], [0, 1]]),
], ids=["string", "bool", "int-and-bool", "float-and-numpy-bool", "strings", "column",
        "scalar", "complex", "nested-weights", "bool-weights", "int-and-bool-weights",
        "flat-cov", "column-mean", "string-mean", "bool-cov", "int-and-bool-mean",
        "float-and-bool-cov", "flat-map", "int-and-bool-map"])
def test_constructors_refuse_other_shapes_and_kinds(make):
    with pytest.raises(ValueError):
        make()


class TestPhotonMixture:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PhotonMixture([0.5, -0.1, 0.6])

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            PhotonMixture([0.5, 0.4])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PhotonMixture([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        # NaN slips past both the sign and the normalization check
        with pytest.raises(ValueError, match="finite"):
            PhotonMixture([bad, 1.0])

    def test_photon_number_limit(self):
        # N_MAX is the largest photon number, so the longest vector has N_MAX + 1 entries
        assert len(PhotonMixture(np.full(N_MAX + 1, 1.0 / (N_MAX + 1)))) == N_MAX + 1
        with pytest.raises(ValueError, match="N_MAX"):
            PhotonMixture(np.full(N_MAX + 2, 1.0 / (N_MAX + 2)))

    def test_no_silent_renormalization(self):
        with pytest.raises(ValueError):
            PhotonMixture([0.5, 0.5 + 1e-9])

    def test_immutable(self):
        p = PhotonMixture([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    def test_purity_and_mean(self):
        p = PhotonMixture([0.5, 0.0, 0.5])
        assert p.purity == pytest.approx(0.5, rel=1e-15)
        assert p.mean_photons == pytest.approx(1.0, rel=1e-15)


class TestPassivity:
    def test_examples(self):
        assert is_passive(PhotonMixture([0.5, 0.5, 0.0]))
        assert not is_passive(PhotonMixture([0.5, 0.0, 0.5]))
        assert is_passive(PhotonMixture([1.0, 0.0, 0.0]))

    def test_extremal_passive(self):
        assert np.allclose(extremal_passive(0).probs, [1.0])
        assert np.allclose(extremal_passive(1).probs, [0.5, 0.5])
        assert np.allclose(extremal_passive(2).probs, [1 / 3, 1 / 3, 1 / 3])

    def test_decompose_examples(self):
        assert np.allclose(
            passive_decompose(PhotonMixture([0.5, 0.5])).weights, [0.0, 1.0],
            atol=1e-15,
        )
        assert np.allclose(
            passive_decompose(PhotonMixture([0.6, 0.3, 0.1])).weights,
            [0.3, 0.4, 0.3],
            atol=1e-14,
        )
        assert np.allclose(
            passive_decompose(PhotonMixture([1.0])).weights, [1.0], atol=1e-15
        )

    def test_decompose_rejects_non_passive(self):
        with pytest.raises(NotPassiveError):
            passive_decompose(PhotonMixture([0.4, 0.6]))

    def test_reconstruction_roundtrip(self, rng):
        for _ in range(100):
            p = _random_passive(rng, 30)
            back = compose_passive(passive_decompose(p))
            assert np.max(np.abs(back.probs - p.probs)) <= 1e-12

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction_roundtrip_hypothesis(self, raw):
        probs = np.sort(np.array(raw))[::-1]
        probs = probs / probs.sum()
        p = PhotonMixture(probs)
        back = compose_passive(passive_decompose(p))
        assert np.max(np.abs(back.probs - p.probs)) <= 1e-12


class TestSigmaCoefficients:
    def test_exact_low_order_fractions(self):
        assert sigma_coefficients(1, 0).coeffs.probs.tolist() == [0.5, 0.5]
        assert sigma_coefficients(1, 1).coeffs.probs.tolist() == [0.5, 0.0, 0.5]
        assert sigma_coefficients(2, 0).coeffs.probs.tolist() == [0.25, 0.5, 0.25]

    def test_symmetry_is_exact(self):
        for m in range(7):
            for n in range(7):
                a = sigma_coefficients(m, n).coeffs.probs
                b = sigma_coefficients(n, m).coeffs.probs
                assert a.tolist() == b.tolist()

    def test_matches_exact_rationals(self):
        for m in range(9):
            for n in range(9):
                computed = sigma_coefficients(m, n).coeffs.probs
                exact = [float(f) for f in exact_sigma_probs(m, n)]
                assert np.max(np.abs(computed - exact)) <= 1e-15

    def test_normalization_through_the_validated_range(self):
        for total in [10, 30, 60]:
            for m in range(0, total + 1, max(1, total // 6)):
                probs = sigma_coefficients(m, total - m).coeffs.probs
                assert abs(math.fsum(probs.tolist()) - 1.0) <= 1e-12

    def test_support_bound(self):
        state = sigma_coefficients(3, 4)
        assert len(state.coeffs) == 8
        assert state.m == 3 and state.n == 4

    def test_rejects_overflowing_range(self):
        with pytest.raises(TruncationError, match="N_MAX"):
            sigma_coefficients(128, 129)

    @pytest.mark.parametrize("m, n", [(128, 128), (0, N_MAX)])
    def test_normalized_at_the_photon_number_limit(self, m, n):
        # measured: fsum error 0 for both, 4.1e-16 and 3.0e-16 from the oracle
        probs = sigma_coefficients(m, n).coeffs.probs
        assert len(probs) == N_MAX + 1
        assert abs(math.fsum(probs.tolist()) - 1.0) <= 1e-15
        assert np.max(np.abs(probs - fock_oracle_sigma(m, n, 0.5).probs)) <= 2e-15

    def test_origin_value_vanishes_iff_asymmetric(self):
        # sum_z (-1)^z c_z = pi * W(0) = delta_{mn}
        for m in range(6):
            for n in range(6):
                probs = sigma_coefficients(m, n).coeffs.probs
                alternating = math.fsum(
                    ((-1.0) ** z * c for z, c in enumerate(probs))
                )
                expected = 1.0 if m == n else 0.0
                assert alternating == pytest.approx(expected, abs=1e-12)


class TestExtremalDecomposition:
    @pytest.mark.parametrize("n", range(21))
    def test_average_of_sigmas_is_equiprobable(self, n):
        averaged = extremal_passive_from_sigmas(n)
        direct = extremal_passive(n)
        assert np.max(np.abs(averaged.probs - direct.probs)) <= 1e-12


class TestThermalMixture:
    def test_zero_temperature(self):
        assert thermal_mixture(0.0).probs.tolist() == [1.0]

    def test_geometric_shape(self):
        p = thermal_mixture(1.0)
        ratios = p.probs[1:6] / p.probs[0:5]
        assert np.allclose(ratios, 0.5, rtol=1e-12)
        assert p.mean_photons == pytest.approx(1.0, abs=1e-11)

    def test_purity_matches_gaussian(self):
        # Tr rho^2 of a thermal state is 1/(2 nbar + 1)
        assert thermal_mixture(1.0).purity == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_largest_supported_mean(self):
        # the tail cut of the largest mean ends exactly at N_MAX photons
        assert THERMAL_MAX_MEAN == pytest.approx(8.062, abs=1e-3)
        assert len(thermal_mixture(THERMAL_MAX_MEAN)) == N_MAX + 1

    def test_nan_mean_raises(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            thermal_mixture(math.nan)

    @pytest.mark.parametrize("mean", [THERMAL_MAX_MEAN * (1.0 + 1e-9), 10.0, math.inf])
    def test_mean_beyond_n_max_raises(self, mean):
        with pytest.raises(TruncationError) as info:
            thermal_mixture(mean)
        message = str(info.value)
        for part in (repr(mean), repr(THERMAL_MAX_MEAN), f"N_MAX = {N_MAX}"):
            assert part in message


class TestPassiveDecompositionType:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            PassiveDecomposition([-0.1, 1.1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_weights(self, bad):
        # NaN slips past both the sign and the normalization check
        with pytest.raises(ValueError, match="finite"):
            PassiveDecomposition([bad, 1.0])
