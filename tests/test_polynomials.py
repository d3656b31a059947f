"""The Laguerre and Hermite recurrences behind fock's Wigner and wave functions."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_hermite, eval_laguerre

from wigentropy.fock import laguerre_scaled_all, wavefunction_table


def damped_laguerre(n, t):
    """L_n(t) exp(-t/2) as the last row of the damped table."""
    return float(laguerre_scaled_all(n, t)[n])


def damped(value, t):
    """A reference value of L_n(t) times the table's envelope exp(-t/2)."""
    return math.exp(-0.5 * t) * value


def hermite(n, x):
    """H_n(x) recovered from the normalized Hermite-function recurrence.

    psi_n(x) = pi**(-1/4) (2**n n!)**(-1/2) H_n(x) exp(-x**2/2), so this
    checks the recurrence fock.wavefunction_table runs on.
    """
    scale = math.pi**0.25 * math.exp(
        0.5 * (n * math.log(2.0) + math.lgamma(n + 1) + x * x)
    )
    return float(wavefunction_table(n, x)[n]) * scale


def laguerre_monomial_sum(n, t):
    """Direct closed-form sum, independent of the recurrence."""
    return math.fsum(
        (-1) ** k * math.comb(n, k) * t**k / math.factorial(k) for k in range(n + 1)
    )


def hermite_monomial_sum(n, x):
    return math.fsum(
        math.factorial(n)
        * (-1) ** m
        * (2 * x) ** (n - 2 * m)
        / (math.factorial(m) * math.factorial(n - 2 * m))
        for m in range(n // 2 + 1)
    )


class TestLaguerre:
    def test_order_zero_is_one(self):
        # L_0 = 1, so row 0 is the envelope itself, bit for bit
        for t in [-3.0, 0.0, 0.5, 17.2]:
            assert damped_laguerre(0, t) == np.exp(-0.5 * np.float64(t))

    def test_low_order_closed_forms(self):
        assert damped_laguerre(1, 3.0) == pytest.approx(damped(-2.0, 3.0), abs=1e-12)
        assert damped_laguerre(2, 1.0) == pytest.approx(damped(-0.5, 1.0), abs=1e-12)
        # L_3 = (-t^3 + 9t^2 - 18t + 6)/6,  L_4 = (t^4 - 16t^3 + 72t^2 - 96t + 24)/24
        for t in np.linspace(-10, 10, 41):
            assert damped_laguerre(3, t) == pytest.approx(
                damped((-(t**3) + 9 * t**2 - 18 * t + 6) / 6, t),
                abs=1e-12 * max(1, abs(t) ** 3),
            )
            assert damped_laguerre(4, t) == pytest.approx(
                damped((t**4 - 16 * t**3 + 72 * t**2 - 96 * t + 24) / 24, t),
                abs=1e-11 * max(1, abs(t) ** 4),
            )

    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_matches_monomial_sum(self, n):
        for t in [-5.0, -0.7, 0.0, 0.3, 1.0, 4.2, 9.9]:
            expected = damped(laguerre_monomial_sum(n, t), t)
            assert damped_laguerre(n, t) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_against_scipy(self):
        for n in range(0, 40, 3):
            for t in np.linspace(0, 30, 13):
                assert damped_laguerre(n, t) == pytest.approx(
                    damped(eval_laguerre(n, t), t), rel=1e-9, abs=1e-9
                )

    @given(st.integers(min_value=0, max_value=100))
    def test_value_at_zero_is_exactly_one(self, n):
        assert damped_laguerre(n, 0.0) == 1.0

    def test_scaled_variant_is_damped(self):
        ts = np.linspace(0.0, 400.0, 64)
        scaled = laguerre_scaled_all(80, ts)
        assert np.all(np.isfinite(scaled))
        assert np.max(np.abs(scaled)) <= 1.0 + 1e-12
        assert scaled[5, 0] == 1.0


class TestHermite:
    def test_low_orders(self):
        # psi_0 underflows past |x| ~ 38, so H_0 = 1 is checked inside that range
        assert hermite(0, 3.0) == pytest.approx(1.0, rel=1e-14)
        assert hermite(1, 2.0) == pytest.approx(4.0, abs=1e-14)
        assert hermite(3, 1.0) == pytest.approx(-4.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_matches_monomial_sum(self, n):
        for x in [-3.0, -0.5, 0.0, 0.25, 1.0, 2.5]:
            expected = hermite_monomial_sum(n, x)
            assert hermite(n, x) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_against_scipy(self):
        for n in range(0, 31, 2):
            for x in np.linspace(-5, 5, 11):
                assert hermite(n, x) == pytest.approx(
                    eval_hermite(n, x), rel=1e-10, abs=1e-8
                )

    @given(
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
    def test_parity(self, n, x):
        left = hermite(n, -x)
        right = (-1) ** n * hermite(n, x)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)
