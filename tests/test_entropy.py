import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import digamma, eval_genlaguerre, gammaln, roots_genlaguerre

from conftest import OUTER_DIP, TINY_TOP_MIXTURES, fock_mixture, outer_dip_mixture
from wigentropy.beamsplitter import fock_oracle_sigma, grid_from_mixture
from wigentropy.entropy import (
    MIN_WIGNER_ENTROPY,
    check_epi,
    entropy_power,
    fock_sum_identity_residual,
    mixture_marginal_entropy,
    passive_bound_check,
    wehrl_entropy,
    wigner_entropy_grid,
    wigner_entropy_radial,
    wigner_renyi,
)
from wigentropy.exceptions import (
    NegativeGridError,
    NotPassiveError,
    NotWignerPositiveError,
    QuadratureConvergenceError,
)
from wigentropy.fock import N_MAX, marginal_entropy
from wigentropy.mixtures import (
    PhotonMixture,
    extremal_passive,
    sigma_coefficients,
    thermal_mixture,
)
from wigentropy import positivity
from wigentropy.positivity import (
    EPS_POS,
    extremal_arc_point,
    positivity_report,
    two_photon_mixture,
)
from wigentropy.quadrature import DEFAULT_QUADRATURE, QuadratureSpec
from wigentropy.verification import _random_passive, _random_wigner_positive

VACUUM = PhotonMixture([1.0])
SIGMA_B = PhotonMixture([0.5, 0.5])
WEHRL_FOCK_1 = math.log(math.pi) + 1.0 + np.euler_gamma
REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


class TestRadialEntropy:
    def test_vacuum_anchor(self):
        assert wigner_entropy_radial(VACUUM) == pytest.approx(MIN_WIGNER_ENTROPY, abs=1e-10)

    @pytest.mark.xfail(raises=pytest.fail.Exception, strict=True, reason=OUTER_DIP)
    def test_refuses_dip_beyond_search_range(self):
        with pytest.raises(NotWignerPositiveError):
            wigner_entropy_radial(outer_dip_mixture())

    def test_sigma_b_equals_wehrl_of_one_photon(self):
        assert wigner_entropy_radial(SIGMA_B) == pytest.approx(WEHRL_FOCK_1, abs=1e-9)

    def test_thermal_matches_gaussian_closed_form(self):
        from wigentropy.gaussian import gaussian_wigner_entropy, thermal

        expected = gaussian_wigner_entropy(thermal(1.0))
        assert wigner_entropy_radial(thermal_mixture(1.0)) == pytest.approx(expected, abs=1e-6)

    # mpmath references from perfbench/reference.json (tanh-sinh at 50 digits,
    # split at the extrema of the Laguerre polynomial; perfbench/make_reference.py)
    @pytest.mark.parametrize("make, expected", [
        (lambda: sigma_coefficients(5, 7).coeffs, 4.218010980051875228),
        (lambda: sigma_coefficients(8, 10).coeffs, 4.547845494700890101),
        (lambda: sigma_coefficients(10, 10).coeffs, 4.609669570171480553),
        (lambda: two_photon_mixture(*extremal_arc_point(0.5)), 3.024158919460700906),
    ], ids=["sigma(5,7)", "sigma(8,10)", "sigma(10,10)", "arc(a=0.5)"])
    def test_matches_mpmath_reference(self, make, expected):
        assert wigner_entropy_radial(make()) == pytest.approx(expected, abs=1e-11)

    # measured worst errors: 6.7e-14 at the default tolerances, 5.4e-15 at
    # the CLI's 1e-10
    @pytest.mark.parametrize("spec, bound", [
        (DEFAULT_QUADRATURE, 3e-13),
        (QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10), 5e-14),
    ], ids=["default", "cli"])
    def test_every_mpmath_reference_state(self, spec, bound):
        entries = json.loads(REFERENCE_PATH.read_text())["entries"]
        assert len(entries) == 70
        for entry in entries:
            value = wigner_entropy_radial(PhotonMixture(entry["probs"]), spec)
            assert abs(value - float(entry["h_wigner"])) <= bound, entry["name"]

    # sigma(0, n) has pi W(u) = u**n exp(-u) / n!, a Gamma density in u = r**2,
    # so h = ln pi + ln n! - n psi(n+1) + n + 1 and h_alpha has Gamma functions
    # only; measured worst errors up to N_MAX: 9.3e-14 (order 1), 2.7e-13 (2),
    # 2.6e-13 (3)
    @pytest.mark.parametrize("alpha, bound", [(1.0, 3e-13), (2.0, 1e-12), (3.0, 1e-12)])
    def test_sigma_zero_n_matches_gamma_closed_form(self, alpha, bound):
        for n in (*range(41), 64, 100, 128, 200, 255, N_MAX):
            if alpha == 1.0:
                psi = math.fsum(1.0 / k for k in range(1, n + 1)) - np.euler_gamma
                expected = math.log(math.pi) + math.lgamma(n + 1) - n * psi + n + 1
            else:
                expected = ((1 - alpha) * math.log(math.pi) + math.lgamma(alpha * n + 1)
                            - alpha * math.lgamma(n + 1) - (alpha * n + 1) * math.log(alpha)
                            ) / (1 - alpha)
            value = wigner_renyi(sigma_coefficients(0, n).coeffs, alpha)
            assert abs(value - expected) <= bound, n

    def test_vacuum_not_below_the_bound(self):
        assert wigner_entropy_radial(VACUUM) >= MIN_WIGNER_ENTROPY - 1e-15

    def test_rejects_negative_states(self):
        with pytest.raises(NotWignerPositiveError) as err:
            wigner_entropy_radial(fock_mixture(1))
        assert err.value.min_value == pytest.approx(-1.0 / math.pi, rel=1e-9)
        assert err.value.argmin_r == pytest.approx(0.0, abs=1e-9)


class TestZeroBreakpoints:
    """The touches that split the radial integrals, against closed forms."""

    def test_sigma_touches_are_laguerre_roots(self):
        # sigma(m, n) has W = lo!/(pi hi!) exp(-u) u**d L_lo^(d)(u)**2 with
        # lo = min(m, n) and d = |m - n|: its double zeros are the roots of
        # L_lo^(d), and anything else reported as a touch must be a zero too
        for total in range(41):
            for lo in range(total // 2 + 1):
                d = total - 2 * lo
                touches = positivity_report(sigma_coefficients(lo, total - lo).coeffs).touches
                roots = roots_genlaguerre(lo, d)[0] if lo else np.empty(0)
                gaps = np.abs(touches[:, None] / roots - 1.0) if lo else np.empty((touches.size, 0))
                assert np.all(gaps.min(axis=0, initial=np.inf) <= 1e-12), (lo, total - lo)
                extra = touches[gaps.min(axis=1, initial=np.inf) > 1e-12]
                w = (np.exp(gammaln(lo + 1) - gammaln(lo + d + 1) - extra) / math.pi
                     * extra ** d * eval_genlaguerre(lo, d, extra) ** 2)
                assert np.all(w <= EPS_POS), (lo, total - lo, extra)

    @pytest.mark.parametrize("a", [1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_arc_touch(self, a):
        # extremal_arc_wigner's double root r**2 = 1 - sqrt((1 - a)/(1 + a))
        (touch,) = positivity_report(two_photon_mixture(*extremal_arc_point(a))).touches
        assert touch == pytest.approx(1.0 - math.sqrt((1.0 - a) / (1.0 + a)), rel=1e-12)

    def test_no_touches_on_states_without_zeros(self, rng):
        states = [thermal_mixture(mean) for mean in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)]
        states += [_random_passive(rng, 40) for _ in range(50)]
        for p in states:
            assert positivity_report(p).touches.size == 0, p.probs

    @pytest.mark.parametrize("p, clean", zip(TINY_TOP_MIXTURES, ([0.5, 0.5], [0.6, 0.4])),
                             ids=["1e-320", "1e-310"])
    def test_tiny_top_probability(self, p, clean):
        # the companion matrix of the untrimmed series overflows
        clean = PhotonMixture(clean)
        assert wigner_entropy_radial(p) == pytest.approx(wigner_entropy_radial(clean), abs=1e-10)
        for alpha in (2.0, 0.5):
            assert wigner_renyi(p, alpha) == pytest.approx(wigner_renyi(clean, alpha), abs=1e-10)


class TestGridEntropy:
    def test_vacuum_grid(self):
        grid = grid_from_mixture(VACUUM, 8.0, 512)
        assert wigner_entropy_grid(grid) == pytest.approx(MIN_WIGNER_ENTROPY, abs=1e-5)

    def test_agrees_with_radial_route(self):
        p = sigma_coefficients(2, 1).coeffs
        grid = grid_from_mixture(p, 8.0, 512)
        assert wigner_entropy_grid(grid) == pytest.approx(wigner_entropy_radial(p), abs=1e-5)

    @pytest.mark.parametrize("p", [two_photon_mixture(*extremal_arc_point(0.5)),
                                   fock_oracle_sigma(2, 3, 0.5), fock_oracle_sigma(5, 7, 0.5)],
                             ids=["arc(0.5)", "sigma(2,3)", "sigma(5,7)"])
    def test_touching_states_within_stated_error(self, p):
        # the error README's Numerical notes state: at 512**2 and extent 8
        # the gaps are -2.7e-7, 1.8e-7 and -1.8e-6, and they do not fall
        # steadily with resolution, so no finer grid is the reference
        grid = grid_from_mixture(p, 8.0, 512)
        assert abs(wigner_entropy_grid(grid) - wigner_entropy_radial(p)) <= 2.5e-6

    def test_uniform_disk_sanity(self):
        # synthetic density: uniform on a disk of radius 2, entropy ln(pi R^2);
        # the ragged lattice boundary limits accuracy to ~1e-3
        extent, resolution, radius = 8.0, 512, 2.0
        axis = np.linspace(-extent, extent, resolution)
        x, p = np.meshgrid(axis, axis, indexing="ij")
        inside = (x * x + p * p) <= radius * radius
        h = axis[1] - axis[0]
        values = inside / (inside.sum() * h * h)
        from wigentropy.beamsplitter import WignerGrid

        grid = WignerGrid(values, extent)
        assert wigner_entropy_grid(grid) == pytest.approx(math.log(math.pi * radius**2), abs=1e-2)

    def test_rejects_too_negative_grid(self):
        grid = grid_from_mixture(VACUUM, 8.0, 128)
        values = grid.values.copy()
        values[0, 0] -= 1e-6
        from wigentropy.beamsplitter import WignerGrid

        bad = WignerGrid(values, 8.0)
        with pytest.raises(NegativeGridError):
            wigner_entropy_grid(bad)


class TestQuadratureControls:
    def test_invalid_spec_rejected(self):
        from wigentropy.quadrature import QuadratureSpec

        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                QuadratureSpec(rel_tol=bad)


#: states for the single-path tests: smooth, touching and passive
SINGLE_PATH_STATES = {
    "vacuum": VACUUM,
    "sigma(5,7)": sigma_coefficients(5, 7).coeffs,
    "arc(a=0.5)": two_photon_mixture(*extremal_arc_point(0.5)),
    "thermal(1)": thermal_mixture(1.0),
    "passive(3)": extremal_passive(3),
}


class TestRenyi:
    def test_vacuum_special_orders(self):
        for alpha in [0.5, 2.0, 5.0]:
            expected = math.log(math.pi) + math.log(alpha) / (alpha - 1.0)
            assert wigner_renyi(VACUUM, alpha) == pytest.approx(expected, abs=1e-8)

    def test_vacuum_infinite_order(self):
        assert wigner_renyi(VACUUM, math.inf) == pytest.approx(math.log(math.pi), abs=1e-9)

    def test_order_two_is_purity(self):
        sigma_c = PhotonMixture([0.5, 0.0, 0.5])
        h_2 = math.log(2.0 * math.pi / sigma_c.purity)
        assert wigner_renyi(sigma_c, 2.0) == pytest.approx(h_2, abs=1e-8)
        assert h_2 == pytest.approx(math.log(4.0 * math.pi), rel=1e-14)

    def test_order_two_for_random_states(self, rng):
        for p in _random_wigner_positive(rng, 8, 20):
            assert wigner_renyi(p, 2.0) == pytest.approx(math.log(2 * math.pi / p.purity), abs=1e-7)

    def test_order_one_routes_to_shannon(self):
        for p in (SIGMA_B, *SINGLE_PATH_STATES.values()):
            assert wigner_renyi(p, 1.0) == wigner_entropy_radial(p), p.probs

    @pytest.mark.parametrize("p", SINGLE_PATH_STATES.values(), ids=SINGLE_PATH_STATES.keys())
    def test_one_positivity_report_per_call(self, p, monkeypatch):
        calls = []
        roots = positivity._laguerre_roots

        def counted(c):
            calls.append(c)
            return roots(c)

        monkeypatch.setattr(positivity, "_laguerre_roots", counted)
        functionals = [lambda: wigner_entropy_radial(p)]
        functionals += [lambda a=a: wigner_renyi(p, a) for a in (0.5, 1.0, 2.0, math.inf)]
        for f in functionals:
            calls.clear()
            f()
            assert len(calls) == 1

    def test_continuity_near_one(self):
        h = wigner_entropy_radial(SIGMA_B)
        below = wigner_renyi(SIGMA_B, 1.0 - 1e-4)
        above = wigner_renyi(SIGMA_B, 1.0 + 1e-4)
        assert above <= h + 1e-3 and h - 1e-3 <= below
        assert abs(below - h) <= 1e-3 and abs(above - h) <= 1e-3

    def test_order_zero_diverges(self):
        # negative and NaN orders are refused with order 0
        for alpha in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                wigner_renyi(VACUUM, alpha)

    # Known defect: near the double zeros of lopsided touching states the
    # alternating Laguerre sum is known only to its roundoff, and a low
    # order w**alpha lifts that noise above every panel's error share.
    # Remove the mark once these orders converge.
    @pytest.mark.xfail(raises=QuadratureConvergenceError, strict=True)
    @pytest.mark.parametrize("m, n, alpha", [(3, 17, 0.3), (0, 40, 0.05)])
    def test_low_order_on_lopsided_touching_state(self, m, n, alpha):
        h = wigner_renyi(sigma_coefficients(m, n).coeffs, alpha)
        assert h >= MIN_WIGNER_ENTROPY


class TestWehrl:
    def test_vacuum(self):
        assert wehrl_entropy(VACUUM) == pytest.approx(MIN_WIGNER_ENTROPY, abs=1e-9)

    def test_fock_one_frozen_value(self):
        assert wehrl_entropy(fock_mixture(1)) == pytest.approx(WEHRL_FOCK_1, abs=1e-9)

    def test_lieb_bound_holds(self, rng):
        for n in range(7):
            assert wehrl_entropy(fock_mixture(n)) >= MIN_WIGNER_ENTROPY - 1e-9
        for _ in range(10):
            p = PhotonMixture(rng.dirichlet(np.ones(6)))
            assert wehrl_entropy(p) >= MIN_WIGNER_ENTROPY - 1e-9

    def test_fock_closed_form(self):
        # h_Q(|n>) = n + ln n! - n digamma(n + 1) + 1 + ln pi; measured worst
        # error 9.6e-14
        for n in range(41):
            closed = n + math.lgamma(n + 1) - n * digamma(n + 1) + MIN_WIGNER_ENTROPY
            assert wehrl_entropy(fock_mixture(n)) == pytest.approx(closed, abs=2e-13), n

    def test_monotone_in_fock_index_observed(self):
        values = [wehrl_entropy(fock_mixture(n)) for n in range(5)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestEntropyPower:
    def test_anchors(self):
        assert entropy_power(math.log(math.pi) + 1.0) == pytest.approx(0.5, rel=1e-14)
        assert entropy_power(math.log(2 * math.pi) + 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_monotone(self):
        hs = np.linspace(-1.0, 4.0, 21)
        powers = [entropy_power(h) for h in hs]
        assert all(b > a for a, b in zip(powers, powers[1:]))


class TestEntropyPowerInequality:
    def test_vacuum_pair_saturates(self):
        for eta in [0.25, 0.5, 0.75]:
            n_out, bound = check_epi(VACUUM, VACUUM, eta)
            assert n_out == pytest.approx(0.5, abs=1e-9)
            assert bound == pytest.approx(0.5, abs=1e-9)

    def test_sigma_b_with_vacuum(self):
        n_out, bound = check_epi(SIGMA_B, VACUUM, 0.5)
        expected_bound = 0.5 * entropy_power(wigner_entropy_radial(SIGMA_B)) + 0.25
        assert bound == pytest.approx(expected_bound, abs=1e-9)
        assert n_out >= bound - 1e-6

    def test_thermal_pair_saturates(self):
        thermal = thermal_mixture(1.0)
        for eta in [0.25, 0.5, 0.75]:
            n_out, bound = check_epi(thermal, thermal, eta)
            assert n_out == pytest.approx(bound, abs=1e-5)

    def test_random_pairs(self, rng):
        states = _random_wigner_positive(rng, 6, 12)
        for i in range(6):
            pa, pb = states[2 * i], states[2 * i + 1]
            for eta in [0.25, 0.5, 0.75]:
                n_out, bound = check_epi(pa, pb, eta)
                assert n_out >= bound - 1e-6


class TestPassiveBound:
    def test_vacuum_saturates(self):
        lhs, rhs = passive_bound_check(VACUUM)
        assert lhs == pytest.approx(rhs, abs=1e-8)
        assert lhs == pytest.approx(MIN_WIGNER_ENTROPY, abs=1e-9)

    def test_vacuum_gap_not_negative(self):
        lhs, rhs = passive_bound_check(VACUUM)
        assert lhs - rhs >= -1e-15

    def test_first_extremal_state(self):
        lhs, rhs = passive_bound_check(extremal_passive(1))
        assert lhs == pytest.approx(WEHRL_FOCK_1, abs=1e-8)
        expected_rhs = 2.0 * 0.5 * (marginal_entropy(0) + marginal_entropy(1))
        assert rhs == pytest.approx(expected_rhs, abs=1e-9)
        assert lhs >= rhs

    @pytest.mark.parametrize("n", range(11))
    def test_extremal_states(self, n):
        lhs, rhs = passive_bound_check(extremal_passive(n))
        assert lhs >= rhs - 1e-9

    def test_random_passive(self, rng):
        for _ in range(30):
            lhs, rhs = passive_bound_check(_random_passive(rng, 20))
            assert lhs >= rhs - 1e-9

    def test_rejects_non_passive(self):
        with pytest.raises(NotPassiveError):
            passive_bound_check(PhotonMixture([0.3, 0.7]))


class TestIdentityResidual:
    def test_low_orders_tiny(self):
        assert fock_sum_identity_residual(0) <= 1e-14
        assert fock_sum_identity_residual(1) <= 1e-12

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_acceptance_threshold(self, n):
        assert fock_sum_identity_residual(n) <= 1e-10


class TestStructuralInequalities:
    def test_concavity_spot_check(self, rng):
        states = _random_wigner_positive(rng, 6, 8)
        for i in range(4):
            pa, pb = states[2 * i], states[2 * i + 1]
            length = max(len(pa), len(pb))
            ha = wigner_entropy_radial(pa)
            hb = wigner_entropy_radial(pb)
            for lam in [0.25, 0.5, 0.75]:
                mixed = PhotonMixture(lam * pa.padded(length) + (1 - lam) * pb.padded(length))
                h_mixed = wigner_entropy_radial(mixed)
                assert h_mixed >= lam * ha + (1 - lam) * hb - 1e-7

    def test_marginal_entropy_dominates_joint(self, rng):
        # joint entropy of (x, p) is at most the sum of the two marginal
        # entropies, which coincide for phase-invariant states
        for p in _random_wigner_positive(rng, 6, 8):
            h_joint = wigner_entropy_radial(p)
            h_marginal = mixture_marginal_entropy(p)
            assert h_joint <= 2.0 * h_marginal + 1e-7
        # a one-hot mixture is the Fock state itself: same integral, same bits
        one_hot = PhotonMixture(np.eye(7)[6])
        assert mixture_marginal_entropy(one_hot) == marginal_entropy(6)

    @pytest.mark.parametrize("n", range(11))
    def test_extremal_chain(self, n):
        # h(equiprobable mixture) >= mean marginal entropy pair >= ln(pi)+1
        h = wigner_entropy_radial(extremal_passive(n))
        mean_marginals = 2.0 / (n + 1) * math.fsum(marginal_entropy(k) for k in range(n + 1))
        assert h >= mean_marginals - 1e-9
        assert mean_marginals >= MIN_WIGNER_ENTROPY - 1e-9

    def test_conjectured_bound_over_sigma_states(self):
        for m in range(6):
            for n in range(m, 6):
                h = wigner_entropy_radial(sigma_coefficients(m, n).coeffs)
                assert h >= MIN_WIGNER_ENTROPY - 1e-7
