"""Command-line front end: state files in, reports and plot-ready CSV out.

State files are JSON documents with exactly one of:

    {"fock_probs": [p0, p1, ...]}                      a Fock mixture
    {"gaussian": {"mean": [x, p], "cov": [[a, b], [b, c]]}}   a Gaussian state

All numeric CSV output uses 15 significant digits and a fixed row order,
so identical inputs and flags produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import __version__, beamsplitter
from .entropy import (
    MIN_WIGNER_ENTROPY,
    wehrl_entropy,
    wigner_entropy_radial,
    wigner_renyi,
)
from .exceptions import NotWignerPositiveError, WigentropyError
from .gaussian import (
    GaussianState,
    gaussian_renyi_entropy,
    gaussian_wehrl_entropy,
)
from .mixtures import PhotonMixture, sigma_coefficients
from .quadrature import QuadratureSpec
from .verification import available_suites, run_suite

EXIT_PARSE_ERROR = 2
EXIT_NOT_POSITIVE = 3
EXIT_BOUND_VIOLATION = 4


def __getattr__(name):
    # ProcessPoolExecutor stays a module attribute that callers may replace,
    # but its module loads multiprocessing, which only sigma-table needs
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _header(tol: float) -> str:
    return f"# tol={_fmt(tol)}, version={__version__}"


def _quadrature(quad_tol: float) -> QuadratureSpec:
    """The spec behind --quad-tol: that absolute tolerance, relative no finer than 1e-12."""
    return QuadratureSpec(abs_tol=quad_tol, rel_tol=max(quad_tol, 1e-12))


class _PositiveFloat(click.FloatRange):
    """A float > 0; NaN, which passes every range comparison, is refused too."""

    def convert(self, value, param, ctx):
        result = super().convert(value, param, ctx)
        if math.isnan(result):
            self.fail(f"{value!r} is not a number.", param, ctx)
        return result


POSITIVE = _PositiveFloat(min=0, min_open=True)
TOLERANCE = _PositiveFloat(min=0, max=math.inf, min_open=True, max_open=True)


def _write_csv(lines: list[str], out_path) -> None:
    """Write the lines to out_path, or to stdout when it is None."""
    output = "\n".join(lines) + "\n"
    if out_path is None:
        click.echo(output, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(output)
    except OSError as exc:
        click.echo(f"error: cannot write {out_path}: {exc.strerror or exc}", err=True)
        sys.exit(1)


def _numbers(value, length: int = 0) -> bool:
    """Whether value is a non-empty JSON list of numbers, not booleans, of that length (0: any)."""
    return (isinstance(value, list) and len(value) > 0 and length in (0, len(value))
            and all(type(x) in (int, float) for x in value))


def load_state(path: str):
    """Parse a state file into a PhotonMixture or GaussianState.

    The numbers must come in the documented shapes: no strings, booleans or
    flattened matrices.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("state file must hold a JSON object")
    keys = {"fock_probs", "gaussian"} & set(doc)
    if len(keys) != 1:
        raise ValueError("state file must contain exactly one of 'fock_probs' or 'gaussian'")
    if "fock_probs" in doc:
        if not _numbers(doc["fock_probs"]):
            raise ValueError("'fock_probs' must be a non-empty list of numbers")
        return PhotonMixture(doc["fock_probs"])
    mean, cov = doc["gaussian"]["mean"], doc["gaussian"]["cov"]
    if not (_numbers(mean, 2) and isinstance(cov, list) and len(cov) == 2
            and all(_numbers(row, 2) for row in cov)):
        raise ValueError("'gaussian' must hold 'mean' as 2 numbers and 'cov' as a "
                         "2x2 list of lists of numbers")
    return GaussianState(mean, cov)


@click.group()
@click.version_option(version=__version__)
def main():
    """Phase-space entropies of single-mode bosonic states."""


@main.command("entropy")
@click.argument("state_file", type=click.Path())
@click.option("--renyi", "renyi_orders", type=POSITIVE, multiple=True,
              help="Also report the order-ALPHA entropy (repeatable).")
@click.option("--quad-tol", type=TOLERANCE, default=1e-10, show_default=True,
              help="Absolute quadrature tolerance.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the report as a key,value CSV.")
def cmd_entropy(state_file, renyi_orders, quad_tol, out_path):
    """Entropy report for one state file.

    Exits 2 when the file cannot be parsed, 3 when the state is not
    Wigner positive (the message names the offending minimum).
    """
    try:
        state = load_state(state_file)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        click.echo(f"error: cannot parse state file: {exc}", err=True)
        sys.exit(EXIT_PARSE_ERROR)

    spec = _quadrature(quad_tol)
    gaussian = isinstance(state, GaussianState)
    rows: list[tuple[str, float]] = []
    try:
        # h_wigner is the order-1 entropy, so it and every --renyi row share one loop
        for key, alpha in (("h_wigner", 1.0),
                           *((f"h_renyi_{_fmt(a)}", a) for a in renyi_orders)):
            rows.append((key, gaussian_renyi_entropy(state, alpha) if gaussian
                          else wigner_renyi(state, alpha, spec)))
        rows.append(("h_wehrl", gaussian_wehrl_entropy(state) if gaussian
                     else wehrl_entropy(state, spec)))
        rows.append(("purity", state.purity))
    except NotWignerPositiveError as exc:
        click.echo(f"error: state is not Wigner positive: min W = {_fmt(exc.min_value)} "
                   f"at r = {_fmt(exc.argmin_r)}", err=True)
        sys.exit(EXIT_NOT_POSITIVE)
    except WigentropyError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    rows.append(("margin_above_ln_pi_plus_1", rows[0][1] - MIN_WIGNER_ENTROPY))
    for key, value in rows:
        click.echo(f"{key} = {_fmt(value)}")
    if out_path is not None:
        _write_csv([_header(quad_tol), "quantity,value",
                    *(f"{key},{_fmt(value)}" for key, value in rows)], out_path)


def _sigma_cell(args: tuple[int, int, QuadratureSpec]) -> tuple[int, int, float]:
    m, n, spec = args
    return m, n, wigner_entropy_radial(sigma_coefficients(m, n).coeffs, spec)


@main.command("sigma-table")
@click.option("--max", "max_photons", type=click.IntRange(0, 30), default=10, show_default=True,
              help="Largest photon number per input arm (guard: 30, which bounds "
                   "run time, not accuracy).")
@click.option("--quad-tol", type=TOLERANCE, default=1e-10, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="CSV destination (default: stdout).")
def cmd_sigma_table(max_photons, quad_tol, out_path):
    """Wigner entropies of the beam-splitter states over a photon-number grid.

    Every entry must stay above ln(pi) + 1; a violation would be a
    counterexample to the conjectured bound and exits with code 4.
    Monotonicity along rows and columns is reported as warnings only.
    The cells run on one worker process per usable core (CPU affinity),
    or in-process on one core.
    """
    spec = _quadrature(quad_tol)
    cells = [(m, n, spec) for m in range(max_photons + 1)
             for n in range(m, max_photons + 1)]
    workers = beamsplitter._WORKERS
    if workers > 1 and len(cells) > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sigma_cell, cells, chunksize=4))
    else:
        results = [_sigma_cell(cell) for cell in cells]

    table = {key: value for m, n, value in results for key in ((m, n), (n, m))}

    lines = [_header(quad_tol), "m,n,entropy"]
    for m in range(max_photons + 1):
        for n in range(max_photons + 1):
            lines.append(f"{m},{n},{_fmt(table[(m, n)])}")
    _write_csv(lines, out_path)

    anchor_gap = abs(table[(0, 0)] - MIN_WIGNER_ENTROPY)
    if anchor_gap > 1e-9:
        click.echo(f"error: vacuum entry off the bound by {anchor_gap:.3e}", err=True)
        sys.exit(1)
    violations = [
        (m, n, v) for (m, n), v in table.items() if v < MIN_WIGNER_ENTROPY - 1e-7
    ]
    if violations:
        for m, n, v in sorted(violations):
            click.echo(
                f"BOUND VIOLATION: entropy({m},{n}) = {_fmt(v)} "
                f"< ln(pi) + 1 = {_fmt(MIN_WIGNER_ENTROPY)} - 1e-7 "
                "(possible counterexample, please report)",
                err=True,
            )
        sys.exit(EXIT_BOUND_VIOLATION)
    for m in range(max_photons + 1):
        for n in range(max_photons):
            if table[(m, n + 1)] < table[(m, n)] - 1e-9:
                click.echo(
                    f"warning: entropy not monotone at ({m},{n}) -> ({m},{n + 1})",
                    err=True,
                )


@main.command("region2")
@click.option("--samples", type=click.IntRange(min=16), default=128, show_default=True,
              help="Points per family (minimum 16).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="CSV destination (default: stdout).")
def cmd_region2(samples, out_path):
    """Boundary data of the two-photon Wigner-positive region.

    Emits three row families: the extremal arc (with the tangency t of
    each state), the flat facet p1 = 1/2, and the family of lines
    W(r) = 0 whose envelope is the boundary ellipse.
    """
    from .positivity import extremal_arc_point

    lines = [_header(0.0),
             "kind,param,p1,p2,tangency_t,line_p1_coef,line_p2_coef,line_const"]
    for a in np.linspace(0.0, 1.0, samples):
        p1, p2 = extremal_arc_point(float(a))
        tangency = 2.0 - p1 / p2
        lines.append(
            f"arc,{_fmt(a)},{_fmt(p1)},{_fmt(p2)},{_fmt(tangency)},,,"
        )
    for p2 in np.linspace(0.0, 0.25, samples):
        lines.append(f"facet,,{_fmt(0.5)},{_fmt(p2)},{_fmt(0.0)},,,")
    # tangent family W(r) = 0; the anchors r = 1/sqrt(2), 1, sqrt(2) give the
    # lines through the named boundary points and are always included
    radii = np.union1d(np.linspace(0.0, 2.0, samples),
                       [2.0 ** -0.5, 1.0, 2.0 ** 0.5])
    for r in radii:
        coef_p1 = 2.0 * r * r - 2.0
        coef_p2 = 2.0 * r**4 - 4.0 * r * r
        lines.append(f"tangent,{_fmt(r)},,,,{_fmt(coef_p1)},{_fmt(coef_p2)},{_fmt(1.0)}")
    _write_csv(lines, out_path)


@main.command("verify")
@click.option("--suite", type=click.Choice(available_suites()), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True)
@click.option("--quad-tol", type=TOLERANCE, default=1e-10, show_default=True)
def cmd_verify(suite, seed, quad_tol):
    """Run one named verification suite (or all) and report pass/fail."""
    results = run_suite(suite, seed=seed, spec=_quadrature(quad_tol))
    for result in results:
        click.echo(result.report())
    if not all(r.passed for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
