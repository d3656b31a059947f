"""Generate the high-precision reference entropies the benchmark checks against.

Run once, from the repository root:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``.  Benchmark runs only read that file;
they never regenerate it.  Nothing here imports ``wigentropy``: the input
probability vectors are rebuilt from their definitions, and each radial
Wigner entropy

    h = -pi * integral_0^inf W(u) ln W(u) du,
    W(u) = exp(-u) P(u) / pi,   P(u) = sum_k p_k (-1)**k L_k(2u),

is integrated with mpmath tanh-sinh quadrature at 50 digits, split at every
real extremum of P.  The touching zeros of extremal states are double roots
of P, hence extrema, so every log singularity of the integrand sits at a
panel end where tanh-sinh converges.  Each value is computed twice, at two
working precisions, and the difference is stored as its error estimate.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

DIGITS = 40
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: published anchors the generated values must reproduce to double precision
ANCHORS = {"sigma(5,7)": 4.218010980051875, "sigma(10,10)": 4.609669570171481}
ANCHOR_TOL = 2e-15

#: arc parameter of the fixed extremal-arc reference state
ARC_A = 0.5


def sigma_probs(m: int, n: int) -> list[float]:
    """Balanced beam-splitter output of |m>|n>, each coefficient rounded once."""
    out = []
    for z in range(m + n + 1):
        s = sum((-1) ** i * math.comb(m, i) * math.comb(n, z - i)
                for i in range(max(0, z - n), min(z, m) + 1))
        num = math.factorial(z) * math.factorial(m + n - z) * s * s
        den = math.factorial(m) * math.factorial(n) * 2 ** (m + n)
        out.append(float(Fraction(num, den)))
    return out


def thermal_probs(mean: float, tail_tol: float = 1e-13) -> list[float]:
    """Geometric distribution truncated where the tail mass drops below tail_tol."""
    q = mean / (mean + 1.0)
    length = max(2, int(math.ceil(math.log(tail_tol) / math.log(q))) + 1)
    return ((1.0 - q) * q ** np.arange(length)).tolist()


def arc_probs(a: float) -> list[float]:
    p1 = 0.5 * math.sqrt(1.0 - a * a)
    p2 = 0.25 * (a + 1.0)
    return [1.0 - p1 - p2, p1, p2]


def reference_states() -> dict[str, list[float]]:
    """Named input vectors: the fixed reference states and every sigma(m, n), m <= n <= 10."""
    states = {
        "vacuum": [1.0],
        "extremal_passive(10)": [1.0 / 11.0] * 11,
        "thermal_mixture(1.0)": thermal_probs(1.0),
        f"arc(a={ARC_A})": arc_probs(ARC_A),
    }
    for m in range(11):
        for n in range(m, 11):
            states[f"sigma({m},{n})"] = sigma_probs(m, n)
    return states


def _power_coeffs(probs: list[float]) -> list:
    """Ascending power-basis coefficients of P(u) = sum_k p_k (-1)**k L_k(2u), exact."""
    coeffs = [Fraction(0)] * len(probs)
    for k, pk in enumerate(probs):
        sign = -1 if k % 2 else 1
        for j in range(k + 1):
            coeffs[j] += sign * Fraction(pk) * math.comb(k, j) * Fraction(-2) ** j / math.factorial(j)
    return coeffs


def _poly(coeffs, u):
    return mp.polyval([mp.mpf(c.numerator) / c.denominator for c in reversed(coeffs)], u)


def _extrema(coeffs, u_max: float) -> list:
    """Real roots of P' in (0, u_max), bracketed on a dense r-grid and refined in mpmath."""
    deriv = [c * j for j, c in enumerate(coeffs)][1:]
    if not deriv:
        return []
    dcoef = [mp.mpf(c.numerator) / c.denominator for c in reversed(deriv)]
    # sample in r = sqrt(u), where Laguerre zeros are roughly evenly spaced;
    # exp(-u) keeps the sampled sign test well scaled
    rs = [mp.mpf(i) * mp.sqrt(u_max) / 20000 for i in range(1, 20001)]
    vals = [mp.polyval(dcoef, r * r) for r in rs]
    roots = []
    for i in range(len(rs) - 1):
        if vals[i] == 0:
            roots.append(rs[i] ** 2)
        elif vals[i] * vals[i + 1] < 0:
            lo, hi = rs[i] ** 2, rs[i + 1] ** 2
            roots.append(mp.findroot(lambda u: mp.polyval(dcoef, u), (lo, hi),
                                     solver="anderson"))
    return roots


def radial_entropy(probs: list[float], dps: int) -> mp.mpf:
    with mp.workdps(dps):
        coeffs = _power_coeffs(probs)
        u_max = (12.0 + math.sqrt(2.0 * len(probs))) ** 2
        breaks = [mp.mpf(0)] + _extrema(coeffs, u_max) + [mp.inf]

        def integrand(u):
            p = _poly(coeffs, u)
            if p <= 0:
                return mp.mpf(0)
            # pi W ln W with W = exp(-u) P / pi
            return mp.exp(-u) * p * (mp.log(p) - u - mp.log(mp.pi))

        return -mp.quad(integrand, breaks, method="tanh-sinh")


def main() -> int:
    entries = []
    worst_est = 0.0
    start = time.perf_counter()
    for name, probs in reference_states().items():
        hi = radial_entropy(probs, DIGITS + 10)
        lo = radial_entropy(probs, DIGITS + 5)
        est = float(abs(hi - lo))
        worst_est = max(worst_est, est)
        entries.append({
            "name": name,
            "probs": probs,
            "h_wigner": mp.nstr(hi, DIGITS, strip_zeros=False),
            "est_err": est,
        })
        print(f"{name:24s} {mp.nstr(hi, 20)}  est_err={est:.1e}", flush=True)
    by_name = {e["name"]: e for e in entries}
    for name, anchor in ANCHORS.items():
        gap = abs(float(mp.mpf(by_name[name]["h_wigner"])) - anchor)
        if gap > ANCHOR_TOL:
            print(f"anchor {name} off by {gap:.3e}", file=sys.stderr)
            return 1
    with mp.workdps(DIGITS + 10):
        vac_gap = abs(mp.mpf(by_name["vacuum"]["h_wigner"]) - (mp.log(mp.pi) + 1))
    if vac_gap > mp.mpf(10) ** (-DIGITS + 2):
        print(f"vacuum off ln(pi)+1 by {mp.nstr(vac_gap, 3)}", file=sys.stderr)
        return 1
    doc = {
        "about": "radial Wigner entropies, mpmath tanh-sinh split at the extrema of P",
        "digits": DIGITS,
        "anchors": ANCHORS,
        "worst_est_err": worst_est,
        "entries": entries,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {OUT} in {time.perf_counter() - start:.0f} s;"
          f" worst estimated error {worst_est:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
