import logging
import math

import numpy as np
import pytest
from numpy.polynomial.laguerre import lagval
from scipy.special import eval_genlaguerre, eval_laguerre

from conftest import (
    OUTER_DIP,
    bitwise_corpus,
    fock_mixture,
    outer_dip_mixture,
    reference_positivity_report,
    reference_radial_wigner,
    reference_touches_zero,
)
from wigentropy import entropy, positivity
from wigentropy.beamsplitter import husimi_phase_invariant
from wigentropy.mixtures import PhotonMixture, sigma_coefficients
from wigentropy.positivity import (
    curved_boundary_residual,
    extremal_arc_point,
    extremal_arc_wigner,
    positivity_report,
    radial_wigner,
    scan_radius,
    two_photon_mixture,
    two_photon_region_contains,
)
from wigentropy.verification import _random_passive, _triangle_samples

VACUUM = PhotonMixture([1.0])
SIGMA_B = PhotonMixture([0.5, 0.5])          # one photon through the splitter
SIGMA_C = PhotonMixture([0.5, 0.0, 0.5])     # both arms fed with one photon
FOCK_1 = PhotonMixture([0.0, 1.0])


def dense_extrema(p: PhotonMixture, points: int) -> tuple[float, float]:
    """(min W, max W) over [0, scan_radius] by a dense scan with bounded refinement.

    Independent of the package: W comes from numpy's Laguerre series.  The
    four lowest (highest) local minima (maxima) of the scan are refined,
    since a touching zero between grid points can sit above a decaying
    tail on the grid.  Each refinement pass rescans every bracket on 201
    points and narrows it to two steps around the best one.
    """
    signed = p.probs * (-1.0) ** np.arange(len(p))

    def wigner(r):
        t = 2.0 * np.square(r)
        return np.exp(-0.5 * t) * lagval(t, signed) / math.pi

    rs = np.linspace(0.0, scan_radius(p), points)
    ws = wigner(rs)

    def extremum(sign: float) -> float:
        vs = sign * ws
        padded = np.concatenate(([np.inf], vs, [np.inf]))
        local = np.nonzero((vs <= padded[:-2]) & (vs <= padded[2:]))[0]
        picks = local[np.argsort(vs[local], kind="stable")[:4]]
        lo, hi = rs[np.maximum(picks - 1, 0)], rs[np.minimum(picks + 1, points - 1)]
        best = vs.min()
        for _ in range(5):
            grid = np.linspace(lo, hi, 201)
            values = sign * wigner(grid)
            best = min(best, values.min())
            centre = grid[np.argmin(values, axis=0), np.arange(len(picks))]
            step = (hi - lo) / 200.0
            lo, hi = np.clip(centre - step, 0.0, rs[-1]), np.clip(centre + step, 0.0, rs[-1])
        return sign * best

    return extremum(1.0), extremum(-1.0)


def two_photon_extrema(p1: float, p2: float, r_max: float) -> tuple[float, float]:
    """Closed-form (min W, max W) over [0, r_max] for the mixture (1-p1-p2, p1, p2).

    With t = 2 r**2, pi W = exp(-t/2) P(t) for P = c0 + c1 t + c2 t**2, so
    the interior stationary points are the roots of the quadratic P' - P/2.
    """
    c0, c1, c2 = 1.0 - 2.0 * p1, p1 - 2.0 * p2, 0.5 * p2
    a, b, c = -0.5 * c2, 2.0 * c2 - 0.5 * c1, c1 - 0.5 * c0
    t_max = 2.0 * r_max * r_max
    ts = [0.0, t_max]
    if a == 0.0:
        ts += [-c / b] if b != 0.0 else []
    elif b * b - 4.0 * a * c >= 0.0:
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        ts += [q / a] + ([c / q] if q != 0.0 else [])
    values = [math.exp(-0.5 * t) * (c0 + c1 * t + c2 * t * t) / math.pi
              for t in ts if 0.0 <= t <= t_max]
    return min(values), max(values)


class TestRadialWigner:
    def test_vacuum(self):
        assert radial_wigner(VACUUM, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert radial_wigner(VACUUM, 2.0) == pytest.approx(math.exp(-4.0) / math.pi, rel=1e-13)

    def test_sigma_c_origin(self):
        # L_0(0) = L_2(0) = 1, so the origin value is 1/pi
        assert radial_wigner(SIGMA_C, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_sigma_b_cancels_at_origin(self):
        assert radial_wigner(SIGMA_B, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_fock_wigner(self):
        from wigentropy.fock import N_MAX, wigner_fock

        # on the axis 2 (r**2 + 0**2) rounds as 2 r r, and the one-hot dot is exact
        radii = np.linspace(0.0, 12.0, 401)
        for n in range(N_MAX + 1):
            p = fock_mixture(n)
            assert np.array_equal(radial_wigner(p, radii), wigner_fock(n, radii, 0.0))
            for r in [0.0, 0.7, 1.3, 2.9]:
                assert radial_wigner(p, r) == wigner_fock(n, r, 0.0)

    def test_flat_facet_states_vanish_at_origin(self, rng):
        # any mixture whose even-photon mass is exactly 1/2 has W(0) = 0
        for _ in range(50):
            length = int(rng.integers(2, 12))
            raw = rng.dirichlet(np.ones(length))
            even = raw[0::2].sum()
            odd = raw[1::2].sum()
            probs = raw.copy()
            probs[0::2] *= 0.5 / even
            probs[1::2] *= 0.5 / odd if odd > 0 else 1.0
            if abs(probs.sum() - 1.0) > 1e-13:
                continue
            p = PhotonMixture(probs / probs.sum())
            assert abs(radial_wigner(p, 0.0)) <= 1e-14

    def test_bounded_by_inverse_pi(self, rng):
        for _ in range(20):
            length = int(rng.integers(1, 30))
            p = PhotonMixture(rng.dirichlet(np.ones(length)))
            rs = np.linspace(0, scan_radius(p), 500)
            assert np.max(np.abs(radial_wigner(p, rs))) <= 1.0 / math.pi + 1e-12


class TestPositivityReport:
    def test_vacuum_does_not_touch(self):
        report = positivity_report(VACUUM)
        assert report.is_positive
        assert not report.touches_zero
        assert report.min_value > 0.0
        assert report.argmin_r == pytest.approx(scan_radius(VACUUM), rel=1e-12)

    def test_sigma_c_touches_at_one(self):
        report = positivity_report(SIGMA_C)
        assert report.is_positive
        assert report.touches_zero
        assert report.argmin_r == pytest.approx(1.0, abs=1e-6)
        assert abs(report.min_value) <= 1e-12

    def test_sigma_b_touches_at_origin(self):
        report = positivity_report(SIGMA_B)
        assert report.is_positive
        assert report.touches_zero
        assert report.argmin_r == pytest.approx(0.0, abs=1e-6)

    def test_fock_one_is_negative_at_origin(self):
        report = positivity_report(FOCK_1)
        assert not report.is_positive
        assert report.min_value == pytest.approx(-1.0 / math.pi, rel=1e-12)
        assert report.argmin_r == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason=OUTER_DIP)
    def test_dip_beyond_search_range_is_negative(self):
        assert not positivity_report(outer_dip_mixture()).is_positive

    def test_passive_states_are_positive(self, rng):
        for _ in range(100):
            p = _random_passive(rng, 20)
            assert positivity_report(p).is_positive

    def test_sigma_states_touch_zero_except_vacuum(self):
        for m, n in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)]:
            report = positivity_report(sigma_coefficients(m, n).coeffs)
            assert report.is_positive
            assert report.touches_zero

    def test_maximum_of_vacuum(self):
        report = positivity_report(VACUUM)
        peak, radius = report.max_value, report.argmax_r
        assert peak == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert radius == pytest.approx(0.0, abs=1e-8)


class TestExtremaAgainstReferences:
    """Extrema of the stationary-point search against independent evaluations."""

    def check(self, p: PhotonMixture, points: int = 4001) -> None:
        report = positivity_report(p)
        w_min, w_max = dense_extrema(p, points)
        assert report.min_value == pytest.approx(w_min, abs=1e-12)
        assert -math.log(report.max_value) == pytest.approx(-math.log(w_max), abs=1e-12)

    def test_sigma_states(self):
        # sigma(m, n) and sigma(n, m) are the same mixture
        for total in range(1, 41):
            for m in range(total // 2 + 1):
                self.check(sigma_coefficients(m, total - m).coeffs)

    def test_random_mixtures(self):
        rng = np.random.default_rng(20210526)
        for _ in range(200):
            self.check(PhotonMixture(rng.dirichlet(np.ones(int(rng.integers(4, 61))))))

    def test_two_photon_closed_form(self):
        rng = np.random.default_rng(7)
        for p1, p2 in rng.uniform(0.0, 1.0, (2000, 2)):
            if p1 + p2 > 1.0:
                p1, p2 = 1.0 - p1, 1.0 - p2
            state = two_photon_mixture(p1, p2)
            w_min, w_max = two_photon_extrema(p1, p2, scan_radius(state))
            report = positivity_report(state)
            assert report.min_value == pytest.approx(w_min, abs=1e-12)
            assert -math.log(report.max_value) == pytest.approx(-math.log(w_max), abs=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: sigma_coefficients(0, 128).coeffs,
        lambda: _random_passive(np.random.default_rng(256), 256),
        lambda: PhotonMixture(np.random.default_rng(256).dirichlet(np.ones(256))),
    ], ids=["sigma(0,128)", "passive", "dirichlet-256"])
    def test_long_mixtures(self, make):
        # companion-matrix roots stay trustworthy at the longest supported series
        self.check(make(), points=40001)

    @pytest.mark.parametrize("m, n", [(0, 40), (3, 17), (5, 7)])
    def test_perturbed_touching_states_are_negative_at_origin(self, m, n):
        # sigma(m, n) touches zero at r = 0, which is always stationary, so a
        # 1e-11 admixture of |1> is found exactly there
        eps = 1e-11
        sigma = sigma_coefficients(m, n).coeffs.probs
        probs = (1.0 - eps) * sigma
        probs[1] += eps
        report = positivity_report(PhotonMixture(probs))
        assert not report.is_positive
        assert report.argmin_r == 0.0

    def test_subnormal_tail_probability(self):
        report = positivity_report(PhotonMixture([0.5, 0.5 - 1e-320, 1e-320]))
        assert report.is_positive and report.touches_zero
        assert report.argmax_r == pytest.approx(1.0, abs=1e-12)


class TestOnePass:
    """Guards against a return to per-point evaluation."""

    def test_report_evaluates_wigner_once(self, monkeypatch):
        calls = []

        def counting(p, r):
            calls.append(r)
            return radial_wigner(p, r)

        monkeypatch.setattr(positivity, "radial_wigner", counting)
        positivity_report(sigma_coefficients(0, 40).coeffs)
        assert len(calls) == 1

    def test_infinite_order_renyi_makes_one_report(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return positivity_report(p)

        monkeypatch.setattr(entropy, "positivity_report", counting)
        entropy.wigner_renyi(sigma_coefficients(0, 40).coeffs, math.inf)
        assert len(calls) == 1


class TestBitwiseReference:
    """Same numbers as the numpy.polynomial formulation, to the last bit."""

    def test_reports_equal_reference(self):
        mismatched = []
        for p in bitwise_corpus():
            report, expected = positivity_report(p), reference_positivity_report(p)
            if report != expected or not all(
                    map(np.array_equal, report.candidates, expected.candidates)):
                mismatched.append(p.probs)
        assert mismatched == []

    def test_touch_rule_equals_minimum_rule(self):
        # reference_touches_zero reads the minimum alone; it differs from the
        # touches-based property only where the tail end lies below a touch
        states = [*bitwise_corpus(),
                  *(two_photon_mixture(*extremal_arc_point(a)) for a in np.linspace(0, 1, 101)),
                  *(two_photon_mixture(p1, p2) for p1, p2 in _triangle_samples(2000)),
                  *(sigma_coefficients(m, total - m).coeffs
                    for total in range(41) for m in range(total // 2 + 1))]
        mismatched = [p.probs for p, report in zip(states, map(positivity_report, states))
                      if report.touches_zero != reference_touches_zero(report)]
        assert mismatched == []

    @pytest.mark.parametrize("length", [1, 2, 3, 17, 64, 257])
    @pytest.mark.parametrize("radii", [
        0.0, 1.3, np.empty(0), np.array([0.7]), np.linspace(0.0, 6.0, 7),
        np.linspace(0.0, 30.0, 257), np.linspace(0.0, 5.0, 15).reshape(3, 5),
        np.linspace(0.0, 8.0, 256).reshape(16, 16),
    ], ids=["zero", "scalar", "empty", "one", "seven", "257", "3x5", "16x16"])
    def test_radial_wigner_equals_reference(self, length, radii):
        p = PhotonMixture(np.random.default_rng(length).dirichlet(np.ones(length)))
        values, expected = radial_wigner(p, radii), reference_radial_wigner(p, radii)
        assert type(values) is type(expected)
        assert np.array_equal(values, expected)


class TestLogging:
    def test_debug_record_per_report(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="wigentropy.positivity"):
            positivity_report(SIGMA_C)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        for word in ("stationary points", "touches", "min W", "max W"):
            assert word in message

    def test_quiet_by_default(self, caplog):
        with caplog.at_level(logging.INFO, logger="wigentropy.positivity"):
            positivity_report(SIGMA_C)
        assert caplog.records == []


class TestCurvedBoundary:
    def test_sigma_c_double_root_at_t_two(self):
        value, slope = curved_boundary_residual(SIGMA_C, 2.0)
        assert value == pytest.approx(0.0, abs=1e-13)
        assert slope == pytest.approx(0.0, abs=1e-13)

    def test_vacuum_is_interior(self):
        for t in [0.0, 1.0, 5.0]:
            value, slope = curved_boundary_residual(VACUUM, t)
            assert value == 1.0
            assert slope == 0.0

    def test_facet_state_tangency_at_origin(self):
        # arc parameter a = 0 gives (p1, p2) = (1/2, 1/4); its tangency
        # point is t = 2 - p1/p2 = 0, i.e. the flat facet at the origin
        state = two_photon_mixture(0.5, 0.25)
        value, slope = curved_boundary_residual(state, 0.0)
        assert value == pytest.approx(0.0, abs=1e-14)
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_difference(self):
        state = two_photon_mixture(0.2, 0.3)
        eps = 1e-6
        for t in [0.5, 2.0, 6.0]:
            v_plus, _ = curved_boundary_residual(state, t + eps)
            v_minus, _ = curved_boundary_residual(state, t - eps)
            _, slope = curved_boundary_residual(state, t)
            assert slope == pytest.approx((v_plus - v_minus) / (2 * eps), abs=1e-7)

    def test_long_mixtures_match_scipy_sums(self, rng):
        # independent reference: fsum of scipy's L_k(t) and of
        # dL_k/dt = -L_{k-1}^{(1)}(t); |L_k(t)| <= exp(t/2) sets the scale.
        # Worst measured error here 5.9e-14 at t = 0 and 1.0e-15 * exp(t/2)
        # above it; 1.2e-13 at t = 0 over 1000 further mixtures.
        for i in range(200):
            n = int(rng.integers(1, 61))
            t = 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 40.0))
            probs = rng.dirichlet(np.ones(n))
            signed = probs * (-1.0) ** np.arange(n)
            value, slope = curved_boundary_residual(PhotonMixture(probs), t)
            expected_value = math.fsum(signed[k] * eval_laguerre(k, t) for k in range(n))
            expected_slope = math.fsum(-signed[k] * eval_genlaguerre(k - 1, 1, t)
                                       for k in range(1, n))
            bound = 1e-12 * max(1.0, math.exp(0.5 * t))
            assert value == pytest.approx(expected_value, abs=bound)
            assert slope == pytest.approx(expected_slope, abs=bound)
            if t == 0.0:
                # dL_k/dt(0) = -k
                origin_slope = -math.fsum(k * signed[k] for k in range(n))
                assert slope == pytest.approx(origin_slope, abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda r: radial_wigner(VACUUM, r),
    lambda r: radial_wigner(VACUUM, np.array([0.0, r])),
    lambda r: husimi_phase_invariant(VACUUM, r),
    lambda r: husimi_phase_invariant(VACUUM, np.array([1.0, r])),
    lambda r: curved_boundary_residual(SIGMA_C, r),
    lambda r: extremal_arc_wigner(0.5, r),
], ids=["radial", "radial-array", "husimi", "husimi-array", "curved", "arc"])
@pytest.mark.parametrize("r", [-1.0, math.nan])
def test_negative_or_nan_radius_rejected(call, r):
    with pytest.raises(ValueError, match="non-negative"):
        call(r)


class TestTwoPhotonRegion:
    def test_examples(self):
        assert two_photon_region_contains(0.0, 0.0)
        assert two_photon_region_contains(0.5, 0.25)
        assert not two_photon_region_contains(0.5, 0.3)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            two_photon_region_contains(0.8, 0.4)

    # NaN fails every comparison, so only a guard written as not (x >= 0 ...)
    # refuses it; max(0.0, nan) once let (nan, 0.1) in
    @pytest.mark.parametrize("p1, p2", [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.0),
                                        (0.0, math.inf), (-math.inf, 0.5)])
    @pytest.mark.parametrize("func", [two_photon_region_contains, two_photon_mixture],
                             ids=["contains", "mixture"])
    def test_rejects_non_finite(self, func, p1, p2):
        with pytest.raises(ValueError, match="physical triangle"):
            func(p1, p2)


class TestExtremalArc:
    def test_endpoints(self):
        assert extremal_arc_point(1.0) == pytest.approx((0.0, 0.5))
        assert extremal_arc_point(0.0) == pytest.approx((0.5, 0.25))

    def test_midpoint(self):
        p1, p2 = extremal_arc_point(0.6)
        assert p1 == pytest.approx(0.4, rel=1e-14)
        assert p2 == pytest.approx(0.4, rel=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            extremal_arc_point(1.2)
        with pytest.raises(ValueError):
            extremal_arc_wigner(-0.1, 1.0)

    def test_ellipse_membership(self):
        for a in np.linspace(0, 1, 11):
            p1, p2 = extremal_arc_point(float(a))
            assert (p1 / 0.5) ** 2 + ((p2 - 0.25) / 0.25) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_mixture(self):
        for a in np.linspace(0, 1, 11):
            p1, p2 = extremal_arc_point(float(a))
            state = two_photon_mixture(p1, p2)
            for r in np.linspace(0, 3, 13):
                expected = radial_wigner(state, float(r))
                assert extremal_arc_wigner(float(a), float(r)) == pytest.approx(expected, abs=1e-12)

    def test_touch_radius(self):
        # the squared factor vanishes at r*^2 = 1 - sqrt((1-a)/(1+a))
        assert extremal_arc_wigner(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        a = 0.5
        r_star = math.sqrt(1.0 - math.sqrt((1 - a) / (1 + a)))
        assert extremal_arc_wigner(a, r_star) == pytest.approx(0.0, abs=1e-15)
        assert extremal_arc_wigner(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_arc_states_touch_zero(self):
        for a in np.linspace(0, 1, 11):
            p1, p2 = extremal_arc_point(float(a))
            report = positivity_report(two_photon_mixture(p1, p2))
            assert report.is_positive
            assert report.touches_zero
            assert abs(report.min_value) <= 1e-9
