"""Per-layer tracing installed from outside the package.

``install()`` wraps every public function of every ``wigentropy`` module
(the names in the defining module's ``__all__``) at each place the function
object is bound: the defining module, every sibling module that imported it
by name, and the package namespace.  Nothing under ``src/`` is edited.

Each wrapped call is a span timed against a stack, so a layer's self time is
its span time minus the time of the wrapped calls it made.  Spans are folded
into per-layer call counts and self times as they close rather than kept as
records: the hot functions run once per quadrature node, and a record per
call would cost more than the aggregate.

Layers are the modules.  Computed work counters (values, scan points, grid
points, transform bytes) are derived from argument and result shapes, not
from instrumentation inside the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("polynomials", "fock", "gaussian", "mixtures", "positivity",
          "quadrature", "entropy", "beamsplitter", "verification", "cli")

#: complex elements each chirp-z stage of convolve_beamsplitter writes, per
#: input pixel: two forward transforms of n x n onto a 2n lattice
#: (2n*n + 2n*2n each) and one back transform (n*2n + n*n) = 15 n**2
CZT_ELEMENTS_PER_PIXEL = 15
COMPLEX_BYTES = 16


class Tracer:
    def __init__(self):
        self.stack: list[float] = []
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {
            "quadrature.integrals": 0,
            "quadrature.integrand_evals": 0,
            "positivity.reports": 0,
            "positivity.scan_points": 0,
            "polynomials.values": 0,
            "beamsplitter.grid_points": 0,
            "beamsplitter.transform_bytes": 0,
            "beamsplitter.oracle_calls": 0,
            "beamsplitter.mix_pairs": 0,
        }
        self.report_states: set[bytes] = set()
        self.wrapped = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        qualified = f"{layer}.{name}"
        count = _COUNTERS.get(qualified)
        signature = inspect.signature(fn) if count else None
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if qualified == "quadrature.integrate" and args:
                args = (self._counting(args[0]),) + args[1:]
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                self.self_s[layer] += elapsed - child
                self.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if layer == "polynomials":
                self.counts["polynomials.values"] += int(getattr(result, "size", 1))
            if count is not None:
                count(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def _counting(self, func):
        counts = self.counts

        def counted(x):
            counts["quadrature.integrand_evals"] += 1
            return func(x)

        return counted

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls and self time plus the computed counters."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counts)
        out["positivity.distinct_states"] = len(self.report_states)
        out["functions_wrapped"] = self.wrapped
        return out


def _count_integrate(tracer, arguments, result):
    tracer.counts["quadrature.integrals"] += 1


def _count_report(tracer, arguments, result):
    tracer.counts["positivity.reports"] += 1
    tracer.counts["positivity.scan_points"] += int(arguments.get("samples", 4096))
    tracer.report_states.add(arguments["p"].probs.tobytes())


def _count_scan(tracer, arguments, result):
    tracer.counts["positivity.scan_points"] += int(arguments.get("samples", 4096))


def _count_grid(tracer, arguments, result):
    tracer.counts["beamsplitter.grid_points"] += int(result.values.size)


def _count_convolve(tracer, arguments, result):
    _count_grid(tracer, arguments, result)
    tracer.counts["beamsplitter.transform_bytes"] += (
        CZT_ELEMENTS_PER_PIXEL * COMPLEX_BYTES * int(result.values.size))


def _count_oracle(tracer, arguments, result):
    tracer.counts["beamsplitter.oracle_calls"] += 1


def _count_mix(tracer, arguments, result):
    tracer.counts["beamsplitter.mix_pairs"] += len(arguments["pa"]) * len(arguments["pb"])


_COUNTERS = {
    "quadrature.integrate": _count_integrate,
    "positivity.positivity_report": _count_report,
    "positivity.radial_wigner_max": _count_scan,
    "beamsplitter.grid_from_mixture": _count_grid,
    "beamsplitter.grid_from_gaussian": _count_grid,
    "beamsplitter.convolve_beamsplitter": _count_convolve,
    "beamsplitter.fock_oracle_sigma": _count_oracle,
    "beamsplitter.mix_through_beamsplitter": _count_mix,
}


def install() -> Tracer:
    """Wrap the public functions of every wigentropy module at every binding site."""
    tracer = Tracer()
    package = importlib.import_module("wigentropy")
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"wigentropy.{layer}")
        except ImportError:
            continue
    replacements = {}
    for layer, module in modules.items():
        for name in getattr(module, "__all__", ()):
            fn = module.__dict__.get(name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                replacements[id(fn)] = (fn, tracer.wrap(layer, name, fn))
    for module in [package, *modules.values()]:
        for name, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
                tracer.wrapped += 1
    if "cli" in modules:
        _wrap_cli_commands(tracer, modules["cli"])
    return tracer


def _wrap_cli_commands(tracer, cli):
    """Span each click command callback as a ``cli`` call."""
    group = getattr(cli, "main", None)
    for name, command in getattr(group, "commands", {}).items():
        callback = command.callback
        if callback is not None and not getattr(callback, "__wrapped_by_perfbench__", False):
            command.callback = tracer.wrap("cli", name.replace("-", "_"), callback)
            tracer.wrapped += 1


class SerialExecutor:
    """Stand-in for ProcessPoolExecutor that maps in-process, so the tracer sees the work."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def keep_pool_work_in_process(cli_module) -> bool:
    """Route the CLI's process pool through SerialExecutor; True if there was one."""
    if hasattr(cli_module, "ProcessPoolExecutor"):
        cli_module.ProcessPoolExecutor = SerialExecutor
        return True
    return False
