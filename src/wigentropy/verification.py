"""Named verification suites behind the ``verify`` command.

Each suite re-derives one family of identities or bounds numerically and
reports the worst residual or margin it saw.  Suites are deterministic:
random draws come from a seeded generator and quadrature uses fixed node
sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import beamsplitter, entropy, mixtures, positivity
from .mixtures import PhotonMixture
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec

__all__ = ["SuiteResult", "SUITES", "run_suite", "available_suites"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    #: each measured number the lines print, by name, and "inputs", the count checked
    values: dict[str, float] = field(default_factory=dict)

    def report(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = "\n".join(f"  {line}" for line in self.lines)
        return f"[{status}] {self.name}\n{body}" if body else f"[{status}] {self.name}"


def _random_passive(rng: np.random.Generator, max_len: int) -> PhotonMixture:
    length = int(rng.integers(1, max_len + 1))
    raw = rng.dirichlet(np.ones(length))
    return PhotonMixture(np.sort(raw)[::-1].copy())


def _random_wigner_positive(rng: np.random.Generator, max_len: int,
                            count: int) -> list[PhotonMixture]:
    """Rejection-sample mixtures whose radial Wigner function stays positive."""
    found: list[PhotonMixture] = []
    while len(found) < count:
        length = int(rng.integers(1, max_len + 1))
        candidate = PhotonMixture(rng.dirichlet(np.ones(length)))
        if positivity.positivity_report(candidate).is_positive:
            found.append(candidate)
    return found


def _sobol_2d(power: int) -> np.ndarray:
    """The first 2**power unscrambled 2-D Sobol points, in Gray-code order.

    Dimension 1 has direction numbers v_k = 2**-(k+1); dimension 2 starts
    at v_0 = 1/2 and has v_k = v_{k-1} xor (v_{k-1} >> 1).  Point i xors the
    direction numbers of the set bits of i xor (i >> 1) (Antonov & Saleev,
    1979; Bratley & Fox, ACM TOMS 14, 88, 1988): the points and their order
    are those of ``scipy.stats.qmc.Sobol(d=2, scramble=False)``.
    """
    index = np.arange(2**power)
    gray = index ^ (index >> 1)
    # fixed-point numerators over 2**power; every point is exact in float64
    points = np.zeros((2**power, 2), dtype=np.int64)
    second = (1 << power) >> 1
    for k in range(power):
        points[(gray >> k) & 1 == 1] ^= (1 << (power - 1 - k), second)
        second ^= second >> 1
    return points / 2.0**power


def _triangle_samples(count: int) -> np.ndarray:
    """Deterministic low-discrepancy points in the triangle p1 + p2 <= 1."""
    power = max(4, math.ceil(math.log2(max(count, 1))))
    points = _sobol_2d(power)[:count]
    flip = points.sum(axis=1) > 1.0
    points[flip] = 1.0 - points[flip]
    return points


def suite_fock_identity(rng, spec) -> SuiteResult:
    """Cumulative Fock Wigner sums equal the wave-function cross sums."""
    residuals = [entropy.fock_sum_identity_residual(n) for n in range(13)]
    worst = max(residuals)
    passed = worst <= 1e-10
    return SuiteResult(
        "fock-identity", passed,
        [f"max residual over n <= 12 on 41x41 grid: {worst:.3e} (tol 1e-10)"],
        {"max_residual": worst, "inputs": len(residuals)},
    )


def suite_passive_mix(rng, spec) -> SuiteResult:
    """Equiprobable mixtures decompose into averaged beam-splitter states."""
    residuals = [np.max(np.abs(mixtures.extremal_passive(n).probs
                               - mixtures.extremal_passive_from_sigmas(n).probs))
                 for n in range(21)]
    worst = float(max(residuals))
    passed = worst <= 1e-12
    return SuiteResult(
        "passive-mix", passed,
        [f"max componentwise residual over n <= 20: {worst:.3e} (tol 1e-12)"],
        {"max_residual": worst, "inputs": len(residuals)},
    )


def suite_sigma_oracle(rng, spec) -> SuiteResult:
    """Closed-form coefficients match the two-mode Fock construction."""
    pairs = [(m, n) for m in range(9) for n in range(9 - m)]
    worst = max(float(np.max(np.abs(mixtures.sigma_coefficients(m, n).coeffs.probs
                                     - beamsplitter.fock_oracle_sigma(m, n, 0.5).probs)))
                for m, n in pairs)
    exact = {(1, 0): [0.5, 0.5], (1, 1): [0.5, 0.0, 0.5], (2, 0): [0.25, 0.5, 0.25]}
    anchors = all(np.allclose(mixtures.sigma_coefficients(m, n).coeffs.probs, probs,
                              rtol=0, atol=1e-15) for (m, n), probs in exact.items())
    passed = worst <= 1e-12 and anchors
    return SuiteResult(
        "sigma-oracle", passed,
        [
            f"max |closed form - two-mode oracle| over m+n <= 8: {worst:.3e} (tol 1e-12)",
            f"exact low-order fractions reproduced: {anchors}",
        ],
        {"max_residual": worst, "anchors_exact": anchors, "inputs": len(pairs)},
    )


def suite_wehrl_bridge(rng, spec) -> SuiteResult:
    """Splitter-with-vacuum Wigner entropy equals the input Wehrl entropy."""
    routes = [entropy.wehrl_bridge_check(PhotonMixture(np.eye(1, n + 1, n)[0]), spec)
              for n in range(7)]
    worst = max(abs(wigner - wehrl) for wigner, wehrl in routes)
    lowest = min(min(pair) for pair in routes)
    passed = worst <= 1e-8 and lowest >= entropy.MIN_WIGNER_ENTROPY - 1e-9
    return SuiteResult(
        "wehrl-bridge", passed,
        [
            f"max |Wigner route - Wehrl route| over Fock n <= 6: {worst:.3e} (tol 1e-8)",
            f"smallest entropy seen: {lowest:.9f} (bound {entropy.MIN_WIGNER_ENTROPY:.9f})",
        ],
        {"max_gap": worst, "lowest_entropy": lowest, "inputs": len(routes)},
    )


def suite_passive_bound(rng, spec) -> SuiteResult:
    """h(W) >= 2 sum p_k h(rho_k) over passive states."""
    states = [mixtures.extremal_passive(n) for n in range(11)]
    states += [_random_passive(rng, 20) for _ in range(100)]
    checks = [entropy.passive_bound_check(state, spec) for state in states]
    worst_margin = min(lhs - rhs for lhs, rhs in checks)
    vac_lhs, vac_rhs = entropy.passive_bound_check(PhotonMixture([1.0]), spec)
    saturation = abs(vac_lhs - vac_rhs)
    passed = worst_margin >= -1e-9 and saturation <= 1e-8
    return SuiteResult(
        "passive-bound", passed,
        [
            f"worst margin lhs - rhs: {worst_margin:.3e} (must be >= -1e-9)",
            f"vacuum saturation gap: {saturation:.3e} (tol 1e-8)",
        ],
        {"worst_margin": worst_margin, "vacuum_gap": saturation, "inputs": len(checks) + 1},
    )


def suite_epi(rng, spec) -> SuiteResult:
    """Entropy powers obey N_out >= eta N_A + (1-eta) N_B."""
    states = _random_wigner_positive(rng, 8, 40)
    etas = (0.25, 0.5, 0.75)
    cases = [(states[2 * i], states[2 * i + 1], eta) for i in range(20) for eta in etas]
    checks = [entropy.check_epi(pa, pb, eta, spec) for pa, pb, eta in cases]
    worst = min(n_out - bound for n_out, bound in checks)
    thermal = mixtures.thermal_mixture(1.0)
    saturated = [entropy.check_epi(thermal, thermal, eta, spec) for eta in etas]
    sat_gap = max(abs(n_out - bound) for n_out, bound in saturated)
    passed = worst >= -1e-6 and sat_gap <= 1e-4
    return SuiteResult(
        "epi", passed,
        [
            f"worst slack N_out - bound over 20 pairs x 3 etas: {worst:.3e} (>= -1e-6)",
            f"thermal-input saturation gap: {sat_gap:.3e} (tol 1e-4)",
        ],
        {"worst_slack": worst, "thermal_gap": sat_gap,
         "inputs": len(checks) + len(saturated)},
    )


def suite_region2(rng, spec) -> SuiteResult:
    """Closed-form two-photon region matches the stationary-point positivity report."""
    samples = _triangle_samples(10_000)
    band_width = 1e-9
    disagreements = 0
    band = 0
    for p1, p2 in samples:
        state = positivity.two_photon_mixture(float(p1), float(p2))
        report = positivity.positivity_report(state)
        # ambiguous only when an *interior* minimum sits within the band;
        # a minimum at the last candidate, the tail end, is the decay to zero
        # every positive state shares: no boundary information
        if report.argmin_r < report.candidates[0][-1] and abs(report.min_value) <= band_width:
            band += 1
            continue
        if positivity.two_photon_region_contains(float(p1), float(p2)) != report.is_positive:
            disagreements += 1
    arc = [positivity.extremal_arc_point(float(a)) for a in np.linspace(0.0, 1.0, 11)]
    reports = [positivity.positivity_report(positivity.two_photon_mixture(*pt)) for pt in arc]
    arc_ok = all(r.touches_zero and abs(r.min_value) <= 1e-9 for r in reports)
    ellipse_worst = max(abs((p1 / 0.5) ** 2 + ((p2 - 0.25) / 0.25) ** 2 - 1.0) for p1, p2 in arc)
    passed = disagreements == 0 and arc_ok and ellipse_worst <= 1e-12
    return SuiteResult(
        "region2", passed,
        [
            f"membership disagreements outside 1e-9 band: {disagreements} "
            f"({band} boundary-band points excluded of {len(samples)})",
            f"arc states all touch zero: {arc_ok}",
            f"worst ellipse residual on the arc: {ellipse_worst:.3e} (tol 1e-12)",
        ],
        {"disagreements": disagreements, "band_excluded": band, "inputs": len(samples),
         "band_width": band_width, "arc_touches_zero": arc_ok,
         "worst_ellipse_residual": ellipse_worst, "arc_points": len(arc)},
    )


def suite_conjecture_scan(rng, spec) -> SuiteResult:
    """Every constructible Wigner-positive state satisfies h(W) >= ln(pi) + 1.

    A violation would be a counterexample to the conjectured bound and is
    reported loudly.
    """
    h = entropy.wigner_entropy_radial
    scanned = [(f"sigma({m},{n})", h(mixtures.sigma_coefficients(m, n), spec))
               for m in range(11) for n in range(m, 11)]
    scanned += [(f"passive#{k}", h(_random_passive(rng, 20), spec)) for k in range(30)]
    for a in np.linspace(0.0, 1.0, 11):
        state = positivity.two_photon_mixture(*positivity.extremal_arc_point(float(a)))
        scanned.append((f"arc(a={a:.1f})", h(state, spec)))
    for k, (p1, p2) in enumerate(_triangle_samples(256)):
        if positivity.two_photon_region_contains(float(p1), float(p2)):
            state = positivity.two_photon_mixture(float(p1), float(p2))
            if positivity.positivity_report(state).is_positive:
                scanned.append((f"two-photon#{k}", h(state, spec)))
    scanned += [(f"rejection#{k}", h(state, spec))
                for k, state in enumerate(_random_wigner_positive(rng, 6, 40))]

    bound = entropy.MIN_WIGNER_ENTROPY
    lowest_label, lowest = min(scanned, key=lambda entry: entry[1])
    violations = [f"COUNTEREXAMPLE CANDIDATE {label}: h(W) = {value!r}"
                  for label, value in scanned if value < bound - 1e-7]
    passed = not violations
    lines = [f"states scanned, all with h(W) >= ln(pi) + 1 - 1e-7: {passed}",
             f"lowest entropy seen: {lowest:.9f} at {lowest_label} (bound {bound:.9f})",
             *violations]
    return SuiteResult("conjecture-scan", passed, lines,
                       {"lowest_entropy": lowest, "violations": len(violations),
                        "inputs": len(scanned)})


SUITES = {
    "fock-identity": suite_fock_identity,
    "passive-mix": suite_passive_mix,
    "sigma-oracle": suite_sigma_oracle,
    "wehrl-bridge": suite_wehrl_bridge,
    "passive-bound": suite_passive_bound,
    "epi": suite_epi,
    "region2": suite_region2,
    "conjecture-scan": suite_conjecture_scan,
}


def available_suites() -> list[str]:
    return [*SUITES, "all"]


def run_suite(name: str, seed: int = 42,
              spec: QuadratureSpec = DEFAULT_QUADRATURE) -> list[SuiteResult]:
    """Run one named suite (or all of them) with a fresh seeded generator."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {available_suites()}")
    return [SUITES[n](np.random.default_rng(seed), spec) for n in names]
