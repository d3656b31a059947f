import math
import warnings

import numpy as np
import pytest

from wigentropy.exceptions import NonSymplecticError
from wigentropy.gaussian import (
    GaussianState,
    SymplecticMap,
    apply_symplectic,
    gaussian_renyi_entropy,
    gaussian_wehrl_entropy,
    gaussian_wigner,
    gaussian_wigner_entropy,
    random_symplectic,
    rotation_map,
    squeeze_map,
    squeezed_vacuum,
    thermal,
    vacuum,
)
from wigentropy.mixtures import PhotonMixture
from wigentropy.positivity import radial_wigner

LN_PI_PLUS_1 = math.log(math.pi) + 1.0


class TestStateValidation:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError):
            GaussianState((0, 0), [[1.0, 0.2], [0.1, 1.0]])

    def test_rejects_heisenberg_violation(self):
        with pytest.raises(ValueError):
            GaussianState((0, 0), [[0.3, 0.0], [0.0, 0.3]])

    @pytest.mark.parametrize("mean, cov", [
        ((math.nan, 0.0), [[0.5, 0.0], [0.0, 0.5]]),
        ((0.0, 0.0), [[math.nan, 0.0], [0.0, 0.5]]),
        ((0.0, 0.0), [[math.inf, 0.0], [0.0, 0.5]]),
    ])
    def test_rejects_non_finite(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            GaussianState(mean, cov)

    # inf * eye(2) would put inf * 0 = NaN off the diagonal, with a warning,
    # before the state's own finiteness check
    @pytest.mark.parametrize("mean", [math.inf, math.nan, -1.0, -math.inf])
    def test_thermal_refuses_bad_mean_photon_number(self, mean):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mean photon number"):
                thermal(mean)

    def test_purity(self):
        assert vacuum().purity == pytest.approx(1.0, rel=1e-14)
        assert thermal(1.0).purity == pytest.approx(1.0 / 3.0, rel=1e-14)


class TestSymplecticMap:
    def test_rejects_non_symplectic(self):
        with pytest.raises(NonSymplecticError):
            SymplecticMap([[1.0, 0.0], [0.0, 2.0]])

    @pytest.mark.parametrize("build", [
        lambda: SymplecticMap([[math.nan, 0.0], [0.0, 1.0]]),
        lambda: SymplecticMap([[math.inf, 0.0], [0.0, 1.0]]),
        lambda: rotation_map(math.nan),
    ])
    def test_rejects_non_finite_matrix(self, build):
        with pytest.raises(NonSymplecticError):
            build()

    @pytest.mark.parametrize("shift", [(math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_non_finite_displacement(self, shift):
        with pytest.raises(ValueError, match="finite"):
            SymplecticMap(np.eye(2), shift)

    def test_identity_fixes_vacuum(self):
        out = apply_symplectic(vacuum(), SymplecticMap(np.eye(2)))
        assert np.allclose(out.cov, 0.5 * np.eye(2), atol=1e-15)
        assert np.allclose(out.mean, 0.0, atol=1e-15)

    def test_squeeze_on_vacuum(self):
        out = apply_symplectic(vacuum(), squeeze_map(0.5))
        expected = np.diag([0.5 * math.e, 0.5 / math.e])
        assert np.allclose(out.cov, expected, rtol=1e-14)
        assert out.det_cov == pytest.approx(0.25, rel=1e-12)

    def test_rotation_fixes_isotropic_state(self):
        out = apply_symplectic(vacuum(), rotation_map(math.pi / 3))
        assert np.allclose(out.cov, 0.5 * np.eye(2), atol=1e-15)

    def test_determinant_preserved(self, rng):
        state = thermal(0.7)
        for _ in range(20):
            sym = random_symplectic(rng)
            out = apply_symplectic(state, sym)
            assert out.det_cov == pytest.approx(state.det_cov, rel=1e-10)


class TestWignerEntropy:
    def test_vacuum_anchor(self):
        assert gaussian_wigner_entropy(vacuum()) == pytest.approx(
            LN_PI_PLUS_1, rel=1e-14
        )

    def test_squeezing_does_not_change_entropy(self):
        for s in [0.1, 0.5, 1.5, -2.0]:
            assert gaussian_wigner_entropy(squeezed_vacuum(s)) == pytest.approx(
                LN_PI_PLUS_1, rel=1e-12
            )

    def test_thermal_value(self):
        assert gaussian_wigner_entropy(thermal(1.0)) == pytest.approx(
            math.log(3.0 * math.pi) + 1.0, rel=1e-14
        )

    def test_symplectic_invariance_over_random_maps(self, rng):
        for _ in range(100):
            rot = rotation_map(rng.uniform(0.0, 2.0 * math.pi)).matrix
            gamma = rot @ np.diag(rng.uniform(0.5, 3.0, size=2)) @ rot.T
            state = GaussianState(rng.uniform(-2.0, 2.0, size=2), gamma)
            before = gaussian_wigner_entropy(state)
            after = gaussian_wigner_entropy(
                apply_symplectic(state, random_symplectic(rng))
            )
            assert abs(after - before) <= 1e-10


class TestWignerFunction:
    def test_vacuum_values(self):
        assert gaussian_wigner(vacuum(), 0.0, 0.0) == pytest.approx(
            1.0 / math.pi, rel=1e-14
        )
        assert gaussian_wigner(vacuum(), 1.0, 0.0) == pytest.approx(
            math.exp(-1.0) / math.pi, rel=1e-14
        )

    def test_thermal_peak(self):
        assert gaussian_wigner(thermal(1.0), 0.0, 0.0) == pytest.approx(
            1.0 / (3.0 * math.pi), rel=1e-14
        )

    def test_matches_fock_vacuum(self):
        for x in np.linspace(-2, 2, 9):
            assert gaussian_wigner(vacuum(), x, 0.3) == pytest.approx(
                radial_wigner(PhotonMixture([1.0]), math.hypot(x, 0.3)), rel=1e-12
            )

    def test_grid_normalization(self):
        axis = np.linspace(-8, 8, 301)
        x, p = np.meshgrid(axis, axis, indexing="ij")
        values = gaussian_wigner(squeezed_vacuum(0.5), x, p)
        step = axis[1] - axis[0]
        assert values.sum() * step**2 == pytest.approx(1.0, abs=1e-8)


class TestGridCrossCheck:
    @pytest.mark.parametrize("nbar, mu", [(0.0, 1.0), (0.5, 0.5), (1.0, 1.0 / 3.0)])
    def test_numeric_grid_entropy_matches_closed_form(self, nbar, mu):
        from wigentropy.beamsplitter import grid_from_gaussian
        from wigentropy.entropy import wigner_entropy_grid

        state = thermal(nbar)
        assert state.purity == pytest.approx(mu, rel=1e-12)
        grid = grid_from_gaussian(state, extent=8.0, resolution=512)
        closed = gaussian_wigner_entropy(state)
        assert wigner_entropy_grid(grid) == pytest.approx(closed, abs=1e-6)


class TestOtherEntropies:
    def test_renyi_closed_forms(self):
        for alpha in [0.5, 2.0, 5.0]:
            expected = math.log(math.pi) + math.log(alpha) / (alpha - 1.0)
            assert gaussian_renyi_entropy(vacuum(), alpha) == pytest.approx(
                expected, rel=1e-13
            )
        assert gaussian_renyi_entropy(vacuum(), math.inf) == pytest.approx(
            math.log(math.pi), rel=1e-13
        )
        for alpha in (0.0, math.nan):
            with pytest.raises(ValueError):
                gaussian_renyi_entropy(vacuum(), alpha)

    def test_wigner_entropy_is_order_one(self):
        states = [vacuum(), thermal(1.5), squeezed_vacuum(0.7),
                  GaussianState([0.3, -0.1], [[1.2, 0.2], [0.2, 0.8]])]
        for state in states:
            assert gaussian_wigner_entropy(state) == gaussian_renyi_entropy(state, 1.0)

    def test_wehrl_vacuum_is_the_coherent_minimum(self):
        assert gaussian_wehrl_entropy(vacuum()) == pytest.approx(
            LN_PI_PLUS_1, rel=1e-13
        )

    def test_wehrl_is_wigner_entropy_of_husimi_gaussian(self, rng):
        # the Husimi function is the Gaussian of covariance (cov + I/2)/2
        for _ in range(200):
            state = apply_symplectic(thermal(rng.uniform(0.0, 3.0)), random_symplectic(rng))
            husimi = GaussianState(state.mean, 0.5 * state.cov + 0.25 * np.eye(2))
            assert gaussian_wehrl_entropy(state) == gaussian_wigner_entropy(husimi)

    def test_wehrl_matches_mixture_route_for_thermal(self):
        from wigentropy.entropy import wehrl_entropy
        from wigentropy.mixtures import thermal_mixture

        closed = gaussian_wehrl_entropy(thermal(1.0))
        assert closed == pytest.approx(math.log(2.0 * math.pi) + 1.0, rel=1e-13)
        assert wehrl_entropy(thermal_mixture(1.0)) == pytest.approx(closed, abs=1e-8)

    def test_wehrl_grows_under_squeezing(self):
        # unlike the Wigner entropy, the Husimi entropy is not squeeze-invariant
        assert gaussian_wehrl_entropy(squeezed_vacuum(1.0)) > gaussian_wehrl_entropy(
            vacuum()
        )
