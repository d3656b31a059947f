"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import exact_sigma_probs, fock_mixture, random_passive_mixture
from wigentropy.beamsplitter import (
    fock_oracle_sigma,
    grid_from_gaussian,
)
from wigentropy.cli import main
from wigentropy.entropy import (
    MIN_WIGNER_ENTROPY,
    check_epi,
    fock_sum_identity_residual,
    passive_bound_check,
    wehrl_bridge_check,
    wigner_entropy_grid,
    wigner_renyi,
)
from wigentropy.gaussian import (
    apply_symplectic,
    gaussian_wigner_entropy,
    random_symplectic,
    squeezed_vacuum,
)
from wigentropy.mixtures import (
    PhotonMixture,
    extremal_passive,
    extremal_passive_from_sigmas,
    sigma_coefficients,
    thermal_mixture,
)
from wigentropy.positivity import (
    extremal_arc_point,
    positivity_report,
    scan_radius,
    two_photon_mixture,
    two_photon_region_contains,
)


def announce(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_vacuum_anchor(tmp_path):
    """cmd_entropy on the vacuum: h(W) = ln(pi) + 1 within 1e-9, under 1 s."""
    path = tmp_path / "vacuum.json"
    path.write_text(json.dumps({"fock_probs": [1.0]}))
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["entropy", str(path)])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    reported = {
        k: float(v)
        for k, _, v in (line.partition(" = ") for line in result.output.splitlines())
    }
    assert reported["h_wigner"] == pytest.approx(MIN_WIGNER_ENTROPY, abs=1e-9)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    announce(1, "vacuum anchor")


def test_02_gaussian_invariance():
    """Closed-form entropy invariant under 100 random symplectic maps within
    1e-10; squeezed-state grid entropy (s=0.5, 512^2, extent 8) within 1e-5."""
    from wigentropy.gaussian import GaussianState, rotation_map

    rng = np.random.default_rng(42)
    for _ in range(100):
        # random valid covariance: rotated anisotropic diagonal, det >= 1/4
        rot = rotation_map(rng.uniform(0.0, 2.0 * math.pi)).matrix
        gamma = rot @ np.diag(rng.uniform(0.5, 3.0, size=2)) @ rot.T
        state = GaussianState(rng.uniform(-2.0, 2.0, size=2), gamma)
        mapped = apply_symplectic(state, random_symplectic(rng))
        assert abs(
            gaussian_wigner_entropy(mapped) - gaussian_wigner_entropy(state)
        ) <= 1e-10
    grid = grid_from_gaussian(squeezed_vacuum(0.5), extent=8.0, resolution=512)
    assert wigner_entropy_grid(grid) == pytest.approx(MIN_WIGNER_ENTROPY, abs=1e-5)
    announce(2, "gaussian invariance")


def test_03_cumulative_identity():
    """Max residual of the cumulative Wigner identity <= 1e-10 for n <= 12
    on a 41x41 grid over [-5, 5]^2, under 10 s."""
    start = time.perf_counter()
    worst = max(fock_sum_identity_residual(n) for n in range(13))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst residual {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    announce(3, "cumulative Wigner identity")


def test_04_equiprobable_decomposition():
    """Averaged beam-splitter states reproduce the equiprobable mixtures
    within 1e-12 per component for n <= 20."""
    for n in range(21):
        averaged = extremal_passive_from_sigmas(n).probs
        direct = extremal_passive(n).probs
        assert np.max(np.abs(averaged - direct)) <= 1e-12
    announce(4, "equiprobable decomposition")


def test_05_sigma_oracle():
    """Closed form matches the two-mode brute force within 1e-12 for
    m+n <= 8; the three low-order states have their exact fractions."""
    for m in range(9):
        for n in range(9 - m):
            closed = sigma_coefficients(m, n).coeffs.probs
            brute = fock_oracle_sigma(m, n, 0.5).probs
            exact = np.array([float(f) for f in exact_sigma_probs(m, n)])
            assert np.max(np.abs(closed - brute)) <= 1e-12
            assert np.max(np.abs(closed - exact)) <= 1e-12
    assert sigma_coefficients(1, 0).coeffs.probs.tolist() == [0.5, 0.5]
    assert sigma_coefficients(1, 1).coeffs.probs.tolist() == [0.5, 0.0, 0.5]
    assert sigma_coefficients(2, 0).coeffs.probs.tolist() == [0.25, 0.5, 0.25]
    announce(5, "sigma coefficients oracle")


def test_06_sigma_table(tmp_path):
    """sigma-table --max 10: under 5 minutes, all 121 entries above the
    bound minus 1e-7, vacuum entry on the bound within 1e-9, monotonicity
    as warnings only."""
    out = tmp_path / "table.csv"
    start = time.perf_counter()
    result = CliRunner().invoke(
        main, ["sigma-table", "--max", "10", "--jobs", "1", "--out", str(out)]
    )
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if not line.startswith(("#", "m,"))
    ]
    assert len(rows) == 121
    table = {(int(m), int(n)): float(h) for m, n, h in rows}
    assert all(h >= MIN_WIGNER_ENTROPY - 1e-7 for h in table.values())
    assert abs(table[(0, 0)] - MIN_WIGNER_ENTROPY) <= 1e-9
    assert all(table[(m, n)] == table[(n, m)] for m, n in table)
    increasing = sum(
        table[(m, n + 1)] > table[(m, n)] for m in range(11) for n in range(10)
    )
    print(f"  [soft] row-wise increasing steps: {increasing}/110")
    announce(6, "sigma entropy table")


def test_07_two_photon_region():
    """10^4 sampled points: closed form vs numeric scan, zero disagreements
    outside a 1e-9 interior band; 11 arc states touch zero within 1e-9 and
    sit on the boundary ellipse within 1e-12."""
    from scipy.stats import qmc

    points = qmc.Sobol(d=2, scramble=False).random_base2(14)[:10_000]
    flip = points.sum(axis=1) > 1.0
    points[flip] = 1.0 - points[flip]
    disagreements = 0
    for p1, p2 in points:
        state = two_photon_mixture(float(p1), float(p2))
        report = positivity_report(state)
        interior = report.argmin_r < scan_radius(state) * (1 - 1e-9)
        if interior and abs(report.min_value) <= 1e-9:
            continue
        if two_photon_region_contains(float(p1), float(p2)) != report.is_positive:
            disagreements += 1
    assert disagreements == 0
    for a in np.linspace(0.0, 1.0, 11):
        p1, p2 = extremal_arc_point(float(a))
        report = positivity_report(two_photon_mixture(p1, p2))
        assert report.touches_zero and abs(report.min_value) <= 1e-9
        ellipse = (p1 / 0.5) ** 2 + ((p2 - 0.25) / 0.25) ** 2
        assert abs(ellipse - 1.0) <= 1e-12
    announce(7, "two-photon region")


def test_08_wehrl_bridge():
    """For Fock inputs n <= 6 the splitter-with-vacuum Wigner entropy equals
    the Wehrl entropy within 1e-8; both above ln(pi)+1; the n=1 value
    reproduces the frozen oracle within 1e-6."""
    frozen = 2.721945550750933  # ln(pi) + 1 + Euler gamma
    for n in range(7):
        left, right = wehrl_bridge_check(fock_mixture(n))
        assert abs(left - right) <= 1e-8
        assert left >= MIN_WIGNER_ENTROPY - 1e-9
        assert right >= MIN_WIGNER_ENTROPY - 1e-9
        if n == 1:
            assert left == pytest.approx(frozen, abs=1e-6)
    announce(8, "Wehrl bridge")


def test_09_passive_bound():
    """h(W) >= 2 sum p_k h(rho_k) for the equiprobable states n <= 10 and
    100 random decreasing mixtures; vacuum saturates within 1e-8."""
    for n in range(11):
        lhs, rhs = passive_bound_check(extremal_passive(n))
        assert lhs >= rhs - 1e-9
    rng = np.random.default_rng(42)
    for _ in range(100):
        lhs, rhs = passive_bound_check(random_passive_mixture(rng, 20))
        assert lhs >= rhs - 1e-9
    lhs, rhs = passive_bound_check(PhotonMixture([1.0]))
    assert abs(lhs - rhs) <= 1e-8
    announce(9, "passive-state bound")


def test_10_renyi():
    """Vacuum order-alpha entropies match ln(pi) + ln(alpha)/(alpha-1)
    within 1e-8 for alpha in {0.5, 2, 5}; order-inf equals ln(pi) within
    1e-9; order 2 equals ln(2 pi / purity) within 1e-7 for 20 random
    Wigner-positive mixtures."""
    vacuum = PhotonMixture([1.0])
    for alpha in (0.5, 2.0, 5.0):
        expected = math.log(math.pi) + math.log(alpha) / (alpha - 1.0)
        assert wigner_renyi(vacuum, alpha) == pytest.approx(expected, abs=1e-8)
    assert wigner_renyi(vacuum, math.inf) == pytest.approx(math.log(math.pi), abs=1e-9)
    rng = np.random.default_rng(42)
    found = 0
    while found < 20:
        p = PhotonMixture(rng.dirichlet(np.ones(int(rng.integers(1, 9)))))
        if not positivity_report(p).is_positive:
            continue
        found += 1
        expected = math.log(2.0 * math.pi / p.purity)
        assert wigner_renyi(p, 2.0) == pytest.approx(expected, abs=1e-7)
    announce(10, "Renyi entropies")


def test_11_entropy_power_inequality():
    """N_out >= eta N_A + (1-eta) N_B with slack -1e-6 for 20 random
    Wigner-positive pairs x eta in {0.25, 0.5, 0.75}; Gaussian inputs
    saturate within 1e-4."""
    rng = np.random.default_rng(42)
    states = []
    while len(states) < 40:
        p = PhotonMixture(rng.dirichlet(np.ones(int(rng.integers(1, 9)))))
        if positivity_report(p).is_positive:
            states.append(p)
    for i in range(20):
        pa, pb = states[2 * i], states[2 * i + 1]
        for eta in (0.25, 0.5, 0.75):
            n_out, bound = check_epi(pa, pb, eta)
            assert n_out >= bound - 1e-6
    thermal_state = thermal_mixture(1.0)
    for eta in (0.25, 0.5, 0.75):
        n_out, bound = check_epi(thermal_state, thermal_state, eta)
        assert n_out == pytest.approx(bound, abs=1e-4)
    announce(11, "entropy-power inequality")


def test_12_conjecture_scan():
    """cmd_verify --suite conjecture-scan reports zero violations of
    h(W) >= ln(pi) + 1 - 1e-7 over every constructible family."""
    result = CliRunner().invoke(main, ["verify", "--suite", "conjecture-scan"])
    assert result.exit_code == 0, result.output
    assert "[PASS] conjecture-scan" in result.output
    assert "COUNTEREXAMPLE" not in result.output
    announce(12, "conjecture scan")
