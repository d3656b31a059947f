"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.  Criteria that a
``verify`` suite checks run through that suite and gate on the numbers it
reports, so each criterion has one loop; the suite's report is printed
under the PASS line.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import exact_sigma_probs, fock_mixture
from wigentropy.beamsplitter import fock_oracle_sigma, grid_from_gaussian
from wigentropy.cli import main
from wigentropy.entropy import (
    MIN_WIGNER_ENTROPY,
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
from wigentropy.mixtures import PhotonMixture, sigma_coefficients
from wigentropy.quadrature import DEFAULT_QUADRATURE
from wigentropy.verification import _random_wigner_positive, run_suite


def announce(number, name, suite=None):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")
    if suite is not None:
        print(suite.report())


def verify_suite(name):
    """Run one verify suite at seed 42 and the package's default quadrature."""
    [suite] = run_suite(name, seed=42, spec=DEFAULT_QUADRATURE)
    return suite


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
    suite = verify_suite("fock-identity")
    elapsed = time.perf_counter() - start
    assert suite.values["inputs"] == 13
    assert suite.values["max_residual"] <= 1e-10
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    announce(3, "cumulative Wigner identity", suite)


def test_04_equiprobable_decomposition():
    """Averaged beam-splitter states reproduce the equiprobable mixtures
    within 1e-12 per component for n <= 20."""
    suite = verify_suite("passive-mix")
    assert suite.values["inputs"] == 21
    assert suite.values["max_residual"] <= 1e-12
    announce(4, "equiprobable decomposition", suite)


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
        main, ["sigma-table", "--max", "10", "--out", str(out)]
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
    suite = verify_suite("region2")
    assert suite.values["inputs"] == 10_000
    assert suite.values["band_width"] == 1e-9
    assert suite.values["disagreements"] == 0
    assert suite.values["arc_points"] == 11
    assert suite.values["arc_touches_zero"]
    assert suite.values["worst_ellipse_residual"] <= 1e-12
    announce(7, "two-photon region", suite)


def test_08_wehrl_bridge():
    """For Fock inputs n <= 6 the splitter-with-vacuum Wigner entropy equals
    the Wehrl entropy within 1e-8; both above ln(pi)+1; the n=1 value
    reproduces the frozen oracle within 1e-6."""
    frozen = 2.721945550750933  # ln(pi) + 1 + Euler gamma
    suite = verify_suite("wehrl-bridge")
    assert suite.values["inputs"] == 7
    assert suite.values["max_gap"] <= 1e-8
    assert suite.values["lowest_entropy"] >= MIN_WIGNER_ENTROPY - 1e-9
    left, _ = wehrl_bridge_check(fock_mixture(1))
    assert left == pytest.approx(frozen, abs=1e-6)
    announce(8, "Wehrl bridge", suite)


def test_09_passive_bound():
    """h(W) >= 2 sum p_k h(rho_k) for the equiprobable states n <= 10 and
    100 random decreasing mixtures; vacuum saturates within 1e-8."""
    suite = verify_suite("passive-bound")
    assert suite.values["inputs"] == 11 + 100 + 1
    assert suite.values["worst_margin"] >= -1e-9
    assert suite.values["vacuum_gap"] <= 1e-8
    announce(9, "passive-state bound", suite)


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
    for p in _random_wigner_positive(np.random.default_rng(42), 8, 20):
        expected = math.log(2.0 * math.pi / p.purity)
        assert wigner_renyi(p, 2.0) == pytest.approx(expected, abs=1e-7)
    announce(10, "Renyi entropies")


def test_11_entropy_power_inequality():
    """N_out >= eta N_A + (1-eta) N_B with slack -1e-6 for 20 random
    Wigner-positive pairs x eta in {0.25, 0.5, 0.75}; Gaussian inputs
    saturate within 1e-4."""
    suite = verify_suite("epi")
    assert suite.values["inputs"] == 20 * 3 + 3
    assert suite.values["worst_slack"] >= -1e-6
    assert suite.values["thermal_gap"] <= 1e-4
    announce(11, "entropy-power inequality", suite)


def test_12_conjecture_scan():
    """cmd_verify --suite conjecture-scan reports zero violations of
    h(W) >= ln(pi) + 1 - 1e-7 over every constructible family."""
    result = CliRunner().invoke(main, ["verify", "--suite", "conjecture-scan"])
    assert result.exit_code == 0, result.output
    assert "[PASS] conjecture-scan" in result.output
    assert "COUNTEREXAMPLE" not in result.output
    announce(12, "conjecture scan")
