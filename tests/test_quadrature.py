import logging
import math

import numpy as np
import pytest

from conftest import fock_mixture
from wigentropy import entropy, quadrature
from wigentropy.entropy import (
    mixture_marginal_entropy,
    wehrl_entropy,
    wigner_entropy_radial,
    wigner_renyi,
)
from wigentropy.exceptions import QuadratureConvergenceError
from wigentropy.mixtures import PhotonMixture, sigma_coefficients
from wigentropy.positivity import extremal_arc_point, two_photon_mixture
from wigentropy.quadrature import QuadratureSpec, entropy_integral, integrate

# entropy of the Gamma(3) density u**2 exp(-u) / 2:
# k + ln Gamma(k) + (1 - k) digamma(k) at k = 3
GAMMA3_ENTROPY = math.log(2.0) + 2.0 * np.euler_gamma  # 1.847578510363011


def gamma3_density(u):
    return 0.5 * u * u * np.exp(-u)


class TestEngine:
    @pytest.mark.parametrize("degree", [0, 1, 7, 31])
    def test_polynomials_exact(self, degree):
        coeffs = np.random.default_rng(degree).normal(size=degree + 1)
        poly = np.polynomial.Polynomial(coeffs)
        anti = poly.integ()
        value = integrate(poly, -1.5, 2.5, points=[0.25])
        assert value == pytest.approx(anti(2.5) - anti(-1.5), rel=1e-13, abs=1e-13)

    def test_log_singular_closed_form(self):
        # double zero at the left end: the integrand behaves like u**2 ln u
        assert entropy_integral(gamma3_density, 0.0, 80.0) == pytest.approx(
            GAMMA3_ENTROPY, abs=1e-12
        )

    def test_points_outside_the_range_are_ignored(self):
        # and an empty array counts as no points: the passive gate's bits rest on it
        inside = integrate(np.exp, 0.0, 1.0)
        for points in ([-3.0, 0.0, 1.0, 7.0], np.empty(0)):
            assert integrate(np.exp, 0.0, 1.0, points=points) == inside
        assert inside == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_unreachable_spec_raises(self):
        # the message names the tolerance asked for, then the budget tol * max(1, |I|)
        spec = QuadratureSpec(1e-300)
        with pytest.raises(QuadratureConvergenceError,
                           match=r"^tolerance 1e-300 \(error budget \d\.\d{3}e-300\) needs more "
                                 r"than 2000 panels$"):
            entropy_integral(gamma3_density, 0.0, 80.0, spec)

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 0.0), (0.0, math.inf),
                                      (math.nan, 1.0)])
    def test_rejects_bad_limits(self, a, b):
        with pytest.raises(ValueError):
            integrate(np.exp, a, b)


@pytest.fixture
def integrand_calls(monkeypatch):
    """Sizes of every integrand call the entropy functionals pass to integrate."""
    calls = []
    engine = quadrature.integrate

    def counting_integrate(func, *args, **kwargs):
        def counted(x):
            calls.append(np.size(x))
            return func(x)
        return engine(counted, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counting_integrate)
    monkeypatch.setattr(entropy, "integrate", counting_integrate)
    return calls


@pytest.fixture
def panel_rounds(monkeypatch):
    """Lower ends of the panels of every round of every integral: one round
    may span several integrand calls of at most EVAL_CHUNK abscissae."""
    rounds = []
    rules = quadrature._panel_rules

    def counting_rules(func, lo, hi):
        rounds.append(lo.copy())
        return rules(func, lo, hi)

    monkeypatch.setattr(quadrature, "_panel_rules", counting_rules)
    return rounds


class TestZeroAtTheLowerLimit:
    """Where a density vanishes at the lower limit, rho ln rho behaves like
    u**d ln u there.  The panel at the limit is cut at a + w 2**-k, k <=
    POINT_DEPTH, in one round; halving alone refines one level a round."""

    # measured: 3 rounds at d = 1 and 2 to 4 at d = 2; halving alone takes
    # 13-15 and up to 8
    @pytest.mark.parametrize("d, most", [(1, 3), (2, 4)])
    @pytest.mark.parametrize("route", ["sigma", "coeffs"])
    def test_lopsided_sigma_states(self, panel_rounds, d, most, route):
        for m in range(11):
            state = sigma_coefficients(m, m + d)
            panel_rounds.clear()
            wigner_entropy_radial(state if route == "sigma" else state.coeffs)
            assert len(panel_rounds) <= most, (m, m + d)

    # the extremal passive state 1/2 |0> + 1/2 |1>, W = u exp(-u) / pi;
    # halving alone takes 14 rounds at order 1 and 20 at order 1/2
    @pytest.mark.parametrize("alpha, most", [(1.0, 3), (0.5, 4)])
    def test_half_vacuum_half_one_photon(self, panel_rounds, alpha, most):
        wigner_renyi(PhotonMixture([0.5, 0.5]), alpha)
        assert len(panel_rounds) <= most

    def test_odd_fock_marginals(self, panel_rounds):
        # psi_n(0) = 0 for odd n: measured, the panel at 0 is in 2 rounds, 3
        # for n = 5, and at most 3 for n < 256; halving alone takes 6 to 9
        for n in range(1, 40, 2):
            panel_rounds.clear()
            mixture_marginal_entropy(fock_mixture(n))
            assert sum(bool(np.any(lo == 0.0)) for lo in panel_rounds) <= 3, n

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_odd_fock_marginals_take_two_rounds(self, panel_rounds, n):
        # halving alone takes 8 rounds each
        mixture_marginal_entropy(fock_mixture(n))
        assert len(panel_rounds) <= 2


class TestBatching:
    def test_radial_entropy_makes_few_batched_calls(self, integrand_calls):
        # one scalar callback per node would make thousands of calls
        wigner_entropy_radial(sigma_coefficients(10, 10).coeffs)
        assert 0 < len(integrand_calls) <= 64
        assert max(integrand_calls) <= quadrature.EVAL_CHUNK

    # the initial dyadic mesh already holds the panels bisection would reach
    @pytest.mark.parametrize("functional", [
        wigner_entropy_radial,
        lambda p: wigner_renyi(p, 2.0),
        wehrl_entropy,
        mixture_marginal_entropy,
    ], ids=["wigner", "renyi-2", "wehrl", "marginal"])
    @pytest.mark.parametrize("probs", [[0.5, 0.3, 0.2], [1.0]], ids=["mixture", "vacuum"])
    def test_smooth_states_take_at_most_two_rounds(self, integrand_calls, functional, probs):
        functional(PhotonMixture(probs))
        assert 0 < len(integrand_calls) <= 2

    # the start mesh is graded toward the touches, which is where bisection
    # of a touching state's entropy always went
    @pytest.mark.parametrize("p", [sigma_coefficients(n, n).coeffs for n in range(11)]
                             + [two_photon_mixture(*extremal_arc_point(a))
                                for a in np.linspace(0.1, 1.0, 10)],
                             ids=[f"sigma({n},{n})" for n in range(11)]
                             + [f"arc({a:.1f})" for a in np.linspace(0.1, 1.0, 10)])
    # at the budget max(1e-10, 1e-9 |I|), |I| = h / pi >= 0.68; at the default
    # tol 1e-10, sigma(n, n), n = 2, 7, 8, 9, and arc(0.9) take two rounds
    def test_touching_states_take_one_round(self, panel_rounds, p):
        h = wigner_entropy_radial(p)
        panel_rounds.clear()
        wigner_entropy_radial(p, QuadratureSpec(1e-9 * min(1.0, h / math.pi)))
        assert len(panel_rounds) == 1

    def test_renyi_two_skips_the_touches(self, panel_rounds):
        # W**2 is smooth at a double zero: the first round is the dyadic mesh
        # alone, where grading toward the ten touches makes it 157 panels
        wigner_renyi(sigma_coefficients(10, 10).coeffs, 2.0)
        assert 0 < len(panel_rounds) <= 2
        assert panel_rounds[0].size < 20

    def test_debug_record_per_integral(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="wigentropy.quadrature"):
            integrate(np.exp, 0.0, 1.0)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        for word in ("rounds", "panels", "evaluations", "error estimate"):
            assert word in message

    def test_quiet_by_default(self, caplog):
        with caplog.at_level(logging.INFO, logger="wigentropy.quadrature"):
            integrate(np.exp, 0.0, 1.0)
        assert caplog.records == []
