"""The in-process workloads: seeded inputs, the timed operation, and its checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  Inputs come only from the seed (and the
worker's part number, which picks its own stretch of the seeded schedule).
Operations call the package through ``wigentropy.__all__`` attribute lookups,
so the tracer's wrappers are seen when they are installed.

References are independent of the code under test wherever one exists:
mpmath entropies from ``reference.json``, closed forms, and dense scans made
with ``numpy.polynomial.laguerre``.  They are all built before timing.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from numpy.polynomial import laguerre as npl
from scipy.optimize import minimize_scalar
from scipy.stats import qmc

LN_PI_1 = math.log(math.pi) + 1.0

#: stated tolerances; an output outside one counts as a failed operation
TOL_REFERENCE = 1e-8     # radial Wigner entropy against the mpmath value
TOL_IDENTITY = 1e-8      # order-2 entropy against ln(2 pi / purity)
TOL_BOUND = 1e-9         # slack on the ln(pi) + 1 lower bounds, which the vacuum attains
TOL_EXTREMUM = 1e-9      # positivity minimum and -ln(peak); also the ambiguity band
TOL_GRID = 1e-9          # convolved grid against its reference grid, pointwise
TOL_GRID_ENTROPY = 1e-7  # Riemann-sum entropy of a Gaussian grid against its closed form

#: seed of the anchor inputs, which are the same in every run
ANCHOR_SEED = 2105
#: two-photon anchors: inside, outside, on the arc (touching) and on the facet
ANCHOR_TWO_PHOTON = ((0.1, 0.1), (0.3, 0.2), (0.2, 0.6), (0.6, 0.1), (0.0, 0.5),
                     (0.25, 0.25), (0.45, 0.3))

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_references(path: str = REFERENCE_PATH) -> dict:
    """Reference entropies by state name: {"probs": array, "h": float}."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {e["name"]: {"probs": np.array(e["probs"]), "h": float(e["h_wigner"])}
            for e in doc["entries"]}


class Check:
    """Accumulates one operation's deviations; ``ok`` is False once any check fails."""

    def __init__(self):
        self.ok = True
        self.worst = 0.0
        self.notes: list[str] = []

    def close(self, label: str, value: float, reference: float, tol: float) -> None:
        dev = abs(value - reference)
        self.worst = max(self.worst, dev)
        if not dev <= tol:
            self.fail(f"{label}: {value!r} vs reference {reference!r} (|dev| {dev:.2e} > {tol:.0e})")

    def at_least(self, label: str, value: float, bound: float) -> None:
        if not value >= bound:
            self.fail(f"{label}: {value!r} below {bound!r}")

    def fail(self, note: str) -> None:
        self.ok = False
        self.notes.append(note)


# -- independent evaluators ---------------------------------------------------

def _wigner_np(probs: np.ndarray, r):
    """W(r) = exp(-r**2) sum_k p_k (-1)**k L_k(2 r**2) / pi, through numpy's Laguerre series."""
    signed = probs * (-1.0) ** np.arange(len(probs))
    r = np.asarray(r, dtype=float)
    return np.exp(-r * r) * npl.lagval(2.0 * r * r, signed) / math.pi


def dense_extrema(probs: np.ndarray, points: int = 16384) -> tuple[float, bool, float]:
    """(min W, min is interior, max W) from a dense scan refined by bounded search."""
    n = len(probs)
    r_max = math.sqrt(n + 8.0 * math.sqrt(n) + 30.0)
    rs = np.linspace(0.0, r_max, points)
    ws = _wigner_np(probs, rs)

    def refine(index: int, sign: float) -> float:
        lo, hi = rs[max(index - 1, 0)], rs[min(index + 1, points - 1)]
        res = minimize_scalar(lambda r: sign * float(_wigner_np(probs, r)),
                              bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
        return sign * min(sign * float(ws[index]), float(res.fun))

    i_min = int(np.argmin(ws))
    return refine(i_min, 1.0), i_min < points - 1, refine(int(np.argmax(ws)), -1.0)


def two_photon_extrema(p1: float, p2: float) -> tuple[float, float]:
    """Closed-form (interior min, max) of W for the mixture (1-p1-p2, p1, p2).

    With t = 2 r**2, pi W = exp(-t/2) P(t) for the quadratic
    P = c0 + c1 t + c2 t**2, so the stationary points solve P' - P/2 = 0.
    """
    p0 = 1.0 - p1 - p2
    c0, c1, c2 = p0 - p1 + p2, p1 - 2.0 * p2, 0.5 * p2
    stationary = np.roots([-0.5 * c2, 2.0 * c2 - 0.5 * c1, c1 - 0.5 * c0])
    ts = [0.0] + [float(t.real) for t in np.atleast_1d(stationary)
                  if abs(t.imag) < 1e-12 and t.real > 0.0]
    values = [math.exp(-0.5 * t) * (c0 + c1 * t + c2 * t * t) / math.pi for t in ts]
    return min(values), max(values)


def sigma_probs(m: int, n: int) -> np.ndarray:
    """Balanced beam-splitter output of |m>|n>, exact integers rounded once."""
    from fractions import Fraction
    out = []
    for z in range(m + n + 1):
        s = sum((-1) ** i * math.comb(m, i) * math.comb(n, z - i)
                for i in range(max(0, z - n), min(z, m) + 1))
        num = math.factorial(z) * math.factorial(m + n - z) * s * s
        den = math.factorial(m) * math.factorial(n) * 2 ** (m + n)
        out.append(float(Fraction(num, den)))
    return np.array(out)


def arc_probs(a: float) -> np.ndarray:
    p1, p2 = 0.5 * math.sqrt(1.0 - a * a), 0.25 * (a + 1.0)
    return np.array([1.0 - p1 - p2, p1, p2])


def positive_mixture(rng, length: int, margin: float = 1e-6) -> np.ndarray:
    """Dirichlet mixture of ``length`` that is Wigner positive with room to spare.

    Accepted when pi W(r) exp(r**2), the alternating Laguerre sum, stays above
    ``margin`` on a dense grid; its leading term is positive, so it only
    grows past the grid.
    """
    ts = 2.0 * np.linspace(0.0, math.sqrt(length + 8.0 * math.sqrt(length) + 30.0), 2048) ** 2
    while True:
        probs = rng.dirichlet(np.ones(length))
        if npl.lagval(ts, probs * (-1.0) ** np.arange(length)).min() > margin:
            return probs


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def spread(rng, count: int, part: int, parts: int) -> np.ndarray:
    """This part's ``count`` points of a golden-ratio sequence in [0, 1) with a seeded start.

    Any stretch of the sequence covers [0, 1) evenly, so when the points pick
    input sizes (or cells sorted by cost), every run sees the same spread of
    sizes whatever the seed, and throughput does not hinge on a few draws.
    Part p takes every parts-th point from p on, so the parts together use
    one unbroken stretch.
    """
    k = part + parts * np.arange(count)
    return (rng.random() + GOLDEN * k) % 1.0


def stratified(sorted_items: list, count: int, part: int, parts: int, bands: int = 12) -> list:
    """``count`` items: the middle item of equal bands of ``sorted_items``, in a fixed cycle.

    The cycle visits every band once, in an order whose prefixes are
    balanced, and part p starts p/parts of the way round, so a run draws the
    same items whatever the seed.  Used where the dearest items cost a
    hundred times the cheapest, so that which of them a run happens to draw
    cannot swing its throughput.
    """
    groups = np.array_split(np.arange(len(sorted_items)), bands)
    order = np.argsort(np.argsort((GOLDEN * np.arange(bands)) % 1.0))
    start = part * bands // parts
    return [sorted_items[int(np.median(groups[order[(start + j) % bands]]))]
            for j in range(count)]


def pick(sorted_items: list, u: float):
    return sorted_items[min(int(u * len(sorted_items)), len(sorted_items) - 1)]


class Workload:
    """Shared loop bookkeeping; subclasses build inputs and define op/check."""

    round_size = 1
    #: the calibration kernel that resembles this workload's work
    calibration = "python"

    def __init__(self, wg, seed: int, part: int, parts: int, budget_s: float):
        """Inputs for worker ``part`` of ``parts``, sized for ``budget_s`` of timed ops."""
        self.wg = wg
        self.rng = np.random.default_rng([seed, 0])
        #: inputs checked after timing in every run, whatever the seed, so
        #: max_abs_err compares like with like across runs and versions
        self.anchors: list = []
        self.seen: set[bytes] = set()
        self.repeats = 0
        self.stats: dict[str, float] = {}

    def build_references(self) -> None:
        """Compute whatever the checks need that is not stored data (before timing)."""

    def next_input(self, i: int):
        """The op's input: slot i of the round, next item of that slot's pool."""
        key = self.SLOTS[i % self.round_size]
        items = self.states[key]
        item = items[self.cursor[key] % len(items)]
        self.cursor[key] += 1
        return item

    def note_state(self, probs: np.ndarray) -> None:
        key = probs.tobytes()
        if key in self.seen:
            self.repeats += 1
        self.seen.add(key)


# -- entropy-stream -----------------------------------------------------------

class EntropyStream(Workload):
    """One op = the entropy report of one Wigner-positive state."""

    name = "entropy-stream"
    #: category of each slot in a round of 16 operations
    SLOTS = ("sigma", "passive", "arc", "sigma", "thermal", "rejection", "passive", "fixed",
             "sigma", "passive", "arc", "sigma", "thermal", "rejection", "passive", "fixed")
    round_size = len(SLOTS)
    FIXED = ("vacuum", "sigma(5,7)", "sigma(10,10)", "extremal_passive(10)",
             "thermal_mixture(1.0)", "arc(a=0.5)")

    def __init__(self, wg, seed, part, parts, budget_s, references):
        super().__init__(wg, seed, part, parts, budget_s)
        self.references = references
        rng = self.rng
        rounds = max(2, int(budget_s * 2))  # about twice the rounds a part completes
        # cells ordered by cost (length first), so spread() picks an even mix
        cells = sorted(((m, n) for m in range(11) for n in range(m, 11)),
                       key=lambda c: (c[0] + c[1], c[1] - c[0]))
        self.pools = {
            "sigma": [(f"sigma({m},{n})", (m, n))
                      for m, n in (pick(cells, u) for u in spread(rng, 4 * rounds, part, parts))],
            "passive": [(None, np.sort(rng.dirichlet(np.ones(1 + int(20 * u))))[::-1].copy())
                        for u in spread(rng, 4 * rounds, part, parts)],
            "arc": [(None, arc_probs(float(u))) for u in spread(rng, 2 * rounds, part, parts)],
            "thermal": [(None, 0.1 + 1.9 * float(u)) for u in spread(rng, 2 * rounds, part, parts)],
            "rejection": [(None, positive_mixture(rng, 1 + int(6 * u)))
                          for u in spread(rng, 2 * rounds, part, parts)],
            "fixed": [(name, name) for name in self.FIXED],
        }
        self.states = {key: [self._build(name, spec) for name, spec in items]
                       for key, items in self.pools.items()}
        self.cursor = {key: 0 for key in self.states}
        self.anchors = self.states["fixed"]

    def _build(self, name, spec):
        """(program state, reference entropy or None, reference name)."""
        wg = self.wg
        if isinstance(spec, tuple):
            state = wg.sigma_coefficients(*spec).coeffs
        elif isinstance(spec, float):
            state = wg.thermal_mixture(spec)
        elif name == "vacuum":
            state = wg.PhotonMixture([1.0])
        elif name in ("sigma(5,7)", "sigma(10,10)"):
            state = wg.sigma_coefficients(*map(int, name[6:-1].split(","))).coeffs
        elif name == "extremal_passive(10)":
            state = wg.extremal_passive(10)
        elif name == "thermal_mixture(1.0)":
            state = wg.thermal_mixture(1.0)
        elif name == "arc(a=0.5)":
            state = wg.two_photon_mixture(*wg.extremal_arc_point(0.5))
        else:
            state = wg.PhotonMixture(spec)
        ref = self.references.get(name) if name else None
        return state, ref, name

    def warm_up(self) -> None:
        self.op(self.states["fixed"][0])

    def op(self, item):
        p = item[0]
        wg = self.wg
        return (wg.wigner_entropy_radial(p), wg.wigner_renyi(p, 2.0),
                wg.wehrl_entropy(p), wg.mixture_marginal_entropy(p))

    def check(self, item, out, check: Check) -> None:
        p, ref, name = item
        h, h2, hq, hm = out
        self.note_state(p.probs)
        check.at_least("h_wigner", h, LN_PI_1 - 1e-7)
        purity = float(np.dot(p.probs, p.probs))
        check.close("h_renyi_2", h2, math.log(2.0 * math.pi / purity), TOL_IDENTITY)
        check.at_least("h_wehrl", hq, LN_PI_1 - TOL_BOUND)
        check.at_least("2 h_marginal", 2.0 * hm, LN_PI_1 - TOL_BOUND)
        if ref is not None:
            if np.array_equal(p.probs, ref["probs"]):
                check.close(f"h_wigner {name}", h, ref["h"], TOL_REFERENCE)
            else:
                check.fail(f"{name}: program-built probabilities differ from the reference input")


# -- positivity-sweep ---------------------------------------------------------

class PositivitySweep(Workload):
    """One op = positivity_report(p), then wigner_renyi(p, inf) when p is positive."""

    name = "positivity-sweep"
    SLOTS = ("two", "long", "two", "sigma", "two", "long", "two", "arc")
    round_size = len(SLOTS)

    def __init__(self, wg, seed, part, parts, budget_s):
        super().__init__(wg, seed, part, parts, budget_s)
        rng = self.rng
        rounds = max(4, int(budget_s * 10))  # about twice the rounds a part completes
        sobol = qmc.Sobol(d=2, scramble=True, seed=rng).random_base2(
            max(1, math.ceil(math.log2(4 * rounds * parts))))
        sobol = sobol[part * 4 * rounds:(part + 1) * 4 * rounds]
        flip = sobol.sum(axis=1) > 1.0
        sobol[flip] = 1.0 - sobol[flip]
        # sigma cells ordered by cost: the scan refines every local minimum,
        # and lopsided (m, n) have many
        cells = sorted(((m, n) for m in range(41) for n in range(m, 41 - m) if m + n > 0),
                       key=lambda c: (c[1] - c[0], c[0] + c[1]))
        self.pools = {
            "two": [("two", float(a), float(b)) for a, b in sobol],
            "long": [("long", rng.dirichlet(np.ones(4 + int(37 * u))))
                     for u in spread(rng, 2 * rounds, part, parts)],
            "sigma": [("sigma",) + cell for cell in stratified(cells, rounds, part, parts)],
            "arc": [("arc", float(u)) for u in spread(rng, rounds, part, parts)],
        }
        self.states = {key: [self._build(spec) for spec in items]
                       for key, items in self.pools.items()}
        self.cursor = {key: 0 for key in self.states}
        fixed = np.random.default_rng(ANCHOR_SEED)
        self.anchors = [self._build(spec) for spec in (
            [("two", p1, p2) for p1, p2 in ANCHOR_TWO_PHOTON]
            + [("long", fixed.dirichlet(np.ones(n))) for n in (8, 16, 24, 40)]
            + [("sigma", 1, 9), ("sigma", 5, 7), ("sigma", 3, 17), ("sigma", 10, 10)]
            + [("arc", a) for a in (0.0, 0.5, 1.0)])]

    def _build(self, spec):
        kind = spec[0]
        if kind == "two":
            probs = np.array([1.0 - spec[1] - spec[2], spec[1], spec[2]])
        elif kind == "long":
            probs = spec[1]
        elif kind == "sigma":
            probs = sigma_probs(spec[1], spec[2])
        else:
            probs = arc_probs(spec[1])
        return [kind, spec, self.wg.PhotonMixture(probs), None]

    def build_references(self) -> None:
        for item in [*self.anchors, *(x for items in self.states.values() for x in items)]:
            kind, spec, p, _ = item
            if kind == "two":
                w_min, w_max = two_photon_extrema(spec[1], spec[2])
                item[3] = (min(w_min, 0.0), w_min < 0.0 or abs(w_min) <= TOL_EXTREMUM, w_max)
            else:
                w_min, interior, w_max = dense_extrema(p.probs)
                if kind in ("sigma", "arc"):
                    w_min, interior = 0.0, True  # touching zeros
                item[3] = (min(w_min, 0.0), interior and w_min <= TOL_EXTREMUM, w_max)

    def warm_up(self) -> None:
        self.op(self.states["two"][0])

    def op(self, item):
        p = item[2]
        report = self.wg.positivity_report(p)
        peak = self.wg.wigner_renyi(p, math.inf) if report.is_positive else None
        return report, peak

    def check(self, item, out, check: Check) -> None:
        kind, spec, p, (ref_min, interior_min, ref_max) = item
        report, peak = out
        self.note_state(p.probs)
        in_band = interior_min and abs(ref_min) <= TOL_EXTREMUM
        if not in_band:
            expected = ref_min >= 0.0
            if report.is_positive != expected:
                check.fail(f"{kind} {spec[1:]}: is_positive={report.is_positive}, reference min {ref_min!r}")
            if kind == "two":
                closed = self.wg.two_photon_region_contains(spec[1], spec[2])
                if report.is_positive != closed:
                    check.fail(f"two-photon {spec[1:]}: disagrees with the closed-form region")
        if kind in ("sigma", "arc") and not report.touches_zero:
            check.fail(f"{kind} {spec[1:]}: touching zero not reported")
        if interior_min:
            check.close("min W", report.min_value, ref_min, TOL_EXTREMUM)
        else:  # positive, with its infimum in the decaying tail past any scan range
            check.at_least("min W", report.min_value, -TOL_EXTREMUM)
        if peak is not None:
            check.close("-ln max W", peak, -math.log(ref_max), TOL_EXTREMUM)
        self.stats["positive"] = self.stats.get("positive", 0) + int(report.is_positive)


# -- grid-convolve ------------------------------------------------------------

def _grid_slots() -> tuple:
    """(resolution, shares the vacuum port, input kind) for each slot of a 16-op round.

    A quarter of the ops are 512**2 and the rest 256**2, so the median op is
    a 256**2 one and the tail a 512**2 one.  Half the ops at each resolution
    reuse the one vacuum grid, and Fock and Gaussian inputs alternate.
    """
    big = iter([(True, "fock"), (False, "gauss"), (True, "gauss"), (False, "fock")])
    small = iter([(k % 2 == 0, "fock" if (k // 2) % 2 == 0 else "gauss") for k in range(12)])
    return tuple((512,) + next(big) if j % 4 == 3 else (256,) + next(small) for j in range(16))


GRID_SLOTS = _grid_slots()
ETAS = (0.25, 0.5, 0.75)
EXTENT = 8.0


class GridConvolve(Workload):
    """One op = convolve_beamsplitter(wa, wb, eta), then wigner_entropy_grid of the output."""

    name = "grid-convolve"
    round_size = len(GRID_SLOTS)
    calibration = "fft"

    def __init__(self, wg, seed, part, parts, budget_s):
        super().__init__(wg, seed, part, parts, budget_s)
        self.rng = np.random.default_rng([seed, 1 + part])
        count = min(48, max(len(GRID_SLOTS), int(budget_s * 6)))
        self.vacuum = wg.PhotonMixture([1.0])
        self.shared = {res: wg.grid_from_mixture(self.vacuum, EXTENT, res) for res in (256, 512)}
        self.items = [self._build(j, self.rng) for j in range(count)]
        fixed = np.random.default_rng(ANCHOR_SEED)
        self.anchors = [self._build(j, fixed) for j in range(4)]

    def _fock(self, rng):
        if rng.random() < 0.5:
            return self.wg.PhotonMixture(np.sort(rng.dirichlet(np.ones(int(rng.integers(1, 9)))))[::-1].copy())
        m = int(rng.integers(0, 8))
        return self.wg.PhotonMixture(sigma_probs(m, int(rng.integers(0, 8 - m))))

    def _gauss(self, rng):
        nu = rng.uniform(0.5, 0.8)
        theta, s = rng.uniform(0.0, math.pi), rng.uniform(-0.3, 0.3)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        sym = rot @ np.diag([math.exp(s), math.exp(-s)])
        return rng.uniform(-0.5, 0.5, 2), nu * sym @ sym.T

    def _build(self, j: int, rng):
        wg = self.wg
        res, shared, kind = GRID_SLOTS[j % len(GRID_SLOTS)]
        eta = ETAS[j % len(ETAS)]
        if kind == "fock":
            a = self._fock(rng)
            b = self.vacuum if shared else self._fock(rng)
            wa = wg.grid_from_mixture(a, EXTENT, res)
            wb = self.shared[res] if shared else wg.grid_from_mixture(b, EXTENT, res)
        else:
            a = self._gauss(rng)
            b = (np.zeros(2), 0.5 * np.eye(2)) if shared else self._gauss(rng)
            wa = wg.grid_from_gaussian(wg.GaussianState(*a), EXTENT, res)
            wb = self.shared[res] if shared else wg.grid_from_gaussian(wg.GaussianState(*b), EXTENT, res)
        return {"kind": kind, "res": res, "shared": shared, "eta": eta,
                "a": a, "b": b, "wa": wa, "wb": wb, "ref": None}

    def build_references(self) -> None:
        wg = self.wg
        for item in self.anchors + self.items:
            eta = item["eta"]
            if item["kind"] == "fock":
                out = wg.mix_through_beamsplitter(item["a"], item["b"], eta)
                item["ref"] = (wg.grid_from_mixture(out, EXTENT, item["res"]).values, None)
            else:
                (ma, ca), (mb, cb) = item["a"], item["b"]
                mean = math.sqrt(eta) * ma + math.sqrt(1.0 - eta) * mb
                cov = eta * ca + (1.0 - eta) * cb
                grid = wg.grid_from_gaussian(wg.GaussianState(mean, cov), EXTENT, item["res"])
                h = math.log(2.0 * math.pi * math.sqrt(np.linalg.det(cov))) + 1.0
                item["ref"] = (grid.values, h)

    def next_input(self, i: int):
        return self.items[i % len(self.items)]

    def warm_up(self) -> None:
        wg = self.wg
        grid = self.shared[256]
        wg.wigner_entropy_grid(wg.convolve_beamsplitter(grid, grid, 0.5))

    def op(self, item):
        out = self.wg.convolve_beamsplitter(item["wa"], item["wb"], item["eta"])
        return out, self.wg.wigner_entropy_grid(out)

    def check(self, item, out, check: Check) -> None:
        grid, h = out
        ref_values, ref_h = item["ref"]
        check.close("grid", float(np.max(np.abs(grid.values - ref_values))), 0.0, TOL_GRID)
        if ref_h is not None:
            check.close("h_grid", h, ref_h, TOL_GRID_ENTROPY)
        self.stats["shared_port"] = self.stats.get("shared_port", 0) + int(item["shared"])
        self.stats["res512"] = self.stats.get("res512", 0) + int(item["res"] == 512)


WORKLOADS = {cls.name: cls for cls in (EntropyStream, PositivitySweep, GridConvolve)}
