"""Benchmark of the wigentropy package: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics declared in ``BENCHMARK.json``; ``--trace 1`` is a separate run
that wraps each module's public functions and reports the per-layer
metrics.  Every output is checked against an independent reference; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files live under
``.perfbench_work/`` in the working directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import cli_session as session
from workloads import WORKLOADS as WORKLOAD_CLASSES
from workloads import load_references

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-session", "entropy-stream", "positivity-sweep", "grid-convolve")
#: worker processes per untraced in-process run; each one pays set-up again,
#: so set-up time is the median of this many fresh starts
PARTS = 3
WORKER_TIMEOUT_S = 170
#: rounds per second of each in-process workload at the time the benchmark
#: was written; the traced run does a fixed number of rounds so its counts
#: repeat exactly for a given --seconds
TRACE_ROUNDS_PER_S = {"entropy-stream": 0.8, "positivity-sweep": 2.0, "grid-convolve": 0.6}
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(root: str, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True, timeout=30)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "scipy", "click", "mpmath")},
        "git_commit": commit,
        "seed": seed,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with >= 10 samples above it.

    With fewer than 11 samples no percentile has 10 beyond it, so the
    maximum is returned and the count beyond says so.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def spawn_worker(root, env, workdir, spec) -> dict:
    tag = f"{spec['workload']}-{spec['part']}-{int(spec['trace'])}"
    spec_path = os.path.join(workdir, f"spec-{tag}.json")
    result_path = os.path.join(workdir, f"result-{tag}.json")
    spec["spawned_at"] = time.monotonic()
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(latencies: list[float]) -> dict:
    """Throughput and latency figures of one set of op times."""
    value, pct, beyond = tail(latencies)
    return {"ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * value, "tail_pct": pct, "tail_beyond": beyond,
            "samples": len(latencies)}


def in_process(args, root, env, workdir) -> dict:
    if args.trace:
        rounds = max(1, round(args.seconds / 2 * TRACE_ROUNDS_PER_S[args.workload]))
        base = {"workload": args.workload, "seed": args.seed, "part": 0, "parts": 1,
                "budget_s": args.seconds / 2}
        ops = rounds * WORKLOAD_CLASSES[args.workload].round_size
        plain = spawn_worker(root, env, workdir, dict(base, trace=False, max_ops=ops))
        traced = spawn_worker(root, env, workdir, dict(base, trace=True, max_ops=ops))
        parts = [plain, traced]
        overhead = sum(traced["scaled"]) / sum(plain["scaled"]) - 1.0
    else:
        parts = [spawn_worker(root, env, workdir, {
            "workload": args.workload, "seed": args.seed, "part": k, "parts": PARTS,
            "budget_s": args.seconds / PARTS, "trace": False}) for k in range(PARTS)]
    # every time is divided by the slow-down factor measured around it (calibration.py)
    scaled = [x for p in parts for x in p["scaled"]]
    raw = [x for p in parts for x in p["latencies"]]
    result = {
        **summarize(scaled),
        "setup_s": statistics.median(p["setup_scaled"] for p in parts),
        "wall_s": statistics.median(p["anchor_scaled"] for p in parts),
        "raw": {**summarize(raw), "setup_s": statistics.median(p["setup_s"] for p in parts),
                "wall_s": statistics.median(p["anchor_s"] for p in parts)},
        "speed_factor": statistics.median(p["speed_factor"] for p in parts),
        "attempted": len(raw) + sum(p["anchors"] for p in parts),
        "failed": sum(p["failed"] + p["anchor_failed"] for p in parts),
        "max_abs_err": max(p["anchor_max_abs_err"] for p in parts),
        "max_abs_err_all": max(max(p["max_abs_err"], p["anchor_max_abs_err"]) for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "notes": [n for p in parts for n in p["notes"] + p["anchor_notes"]][:10],
        "repeat_share": sum(p["repeats"] for p in parts) / len(raw),
        "stats": {k: sum(p["stats"].get(k, 0) for p in parts) / len(raw)
                  for k in {k for p in parts for k in p["stats"]}},
    }
    if args.trace:
        result["layers"] = traced["layers"]
        result["overhead_frac"] = overhead
        result["trace_ops"] = ops
    return result


def cli_session(args, root, env, workdir) -> dict:
    res = session.run(args.seed, args.seconds, bool(args.trace), load_references(), env, root,
                      workdir, setups=PARTS)
    # one op is a whole session: the five commands differ in kind, so their
    # spread is no latency distribution, and each one alone jitters by 15 %
    commands = len(res["latencies"]) / len(res["sessions_raw"])
    res.update(summarize(res["sessions_scaled"]),
               setup_s=statistics.median(res["setup_scaled"]),
               wall_s=statistics.median(res["sessions_scaled"]))
    res["raw"] = {**summarize(res["sessions_raw"]),
                  "setup_s": statistics.median(res["setup_raw"]),
                  "wall_s": statistics.median(res["sessions_raw"])}
    res["ops_per_s"] *= commands
    res["raw"]["ops_per_s"] *= commands
    return res


def import_breakdown(root, env, runs: int = 3) -> dict:
    """import.* metrics from ``python -X importtime -c "import wigentropy.cli"`` (median of runs)."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wigentropy.cli"],
                              cwd=root, env=env, capture_output=True, text=True, check=True,
                              timeout=WORKER_TIMEOUT_S)
        self_us, cumulative_us = {}, {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line.split(":", 1)[1].split("|")
            try:
                own, cumulative = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the column header
            name = fields[2].strip()
            self_us.setdefault(name, own)
            cumulative_us.setdefault(name, cumulative)
        samples.append({
            "import.total_s": cumulative_us.get("wigentropy.cli", 0) / 1e6,
            "import.scipy_signal_s": cumulative_us.get("scipy.signal", 0) / 1e6,
            "import.scipy_stats_s": cumulative_us.get("scipy.stats", 0) / 1e6,
            "import.wigentropy_self_s": sum(v for k, v in self_us.items()
                                            if k == "wigentropy" or k.startswith("wigentropy."))
            / 1e6,
        })
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def layer_metrics(res: dict, imports: dict) -> dict:
    layers = res.get("layers", {})

    def ratio(num, den):
        return layers.get(num, 0) / layers[den] if layers.get(den) else 0.0

    out = dict(imports)
    per_command = res.get("per_command", {})
    for cmd in ("entropy", "sigma_table", "region2", "verify_epi"):
        out[f"cli.{cmd}_s"] = per_command.get(cmd, 0.0)
    out["verification.self_s"] = layers.get("verification.self_s", 0.0)
    for layer in ("quadrature", "entropy", "positivity", "polynomials", "beamsplitter",
                  "fock", "mixtures", "gaussian"):
        out[f"{layer}.calls"] = layers.get(f"{layer}.calls", 0)
        out[f"{layer}.self_s"] = layers.get(f"{layer}.self_s", 0.0)
    out["quadrature.integrand_evals"] = layers.get("quadrature.integrand_evals", 0)
    out["quadrature.evals_per_integral"] = ratio("quadrature.integrand_evals",
                                                 "quadrature.integrals")
    out["positivity.scan_points"] = layers.get("positivity.scan_points", 0)
    out["positivity.reports_per_state"] = ratio("positivity.reports", "positivity.distinct_states")
    out["polynomials.values"] = layers.get("polynomials.values", 0)
    out["polynomials.values_per_call"] = ratio("polynomials.values", "polynomials.calls")
    out["beamsplitter.grid_points"] = layers.get("beamsplitter.grid_points", 0)
    out["beamsplitter.transform_bytes"] = layers.get("beamsplitter.transform_bytes", 0)
    out["beamsplitter.oracle_calls"] = layers.get("beamsplitter.oracle_calls", 0)
    out["beamsplitter.pair_use_ratio"] = ratio("beamsplitter.oracle_calls",
                                               "beamsplitter.mix_pairs")
    out["trace.overhead_frac"] = res["overhead_frac"]
    return out


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "wigentropy", "__init__.py")):
        print("error: run from the repository root; src/wigentropy is missing", file=sys.stderr)
        return 2
    if not os.path.isfile(bench_path):
        print("error: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        declared = json.load(fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        if args.workload == "cli-session":
            res = cli_session(args, root, env, workdir)
        else:
            res = in_process(args, root, env, workdir)
        if args.trace:
            values = layer_metrics(res, import_breakdown(root, env))
            catalog = declared["per_layer"]
        else:
            values = {k: res[k] for k in ("setup_s", "wall_s", "ops_per_s", "latency_p50_ms",
                                          "latency_tail_ms", "max_abs_err", "peak_rss_mb")}
            catalog = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    report(args, res, values, environment(root, args.seed),
           {m["name"]: m["unit"] for m in catalog})
    missing = [m["name"] for m in catalog if m["name"] not in values]
    if missing:
        print(f"error: declared metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in catalog}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


#: the workload's own name for one op and for ops per second
OP_NAMES = {"cli-session": ("command", "commands_per_s"),
            "entropy-stream": ("entropy report", "states_per_s"),
            "positivity-sweep": ("decision", "decisions_per_s"),
            "grid-convolve": ("convolution + grid entropy", "convolutions_per_s")}


def report(args, res, values, env_info, units) -> None:
    op, rate_name = OP_NAMES[args.workload]
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# environment " + json.dumps(env_info))
    print(f"# op = one {op}; {res['attempted']} attempted, {res['failed']} failed")
    for note in res.get("notes", []):
        print(f"# failure: {note}")
    if args.trace:
        for name, value in values.items():
            print(f"{name} = {fmt(value)} {units.get(name, '')}")
        if args.workload == "cli-session":
            print("# sigma-table was traced with its cells mapped in-process (one worker):"
                  " spans in pool workers cannot be collected. The cli.* times come from the"
                  " untraced session, which keeps the pool; trace.overhead_frac leaves"
                  " sigma-table out.")
        else:
            print(f"# trace.overhead_frac: traced vs untraced op time over the same"
                  f" {res['trace_ops']} ops; self_s values are raw seconds")
        print("# beamsplitter.transform_bytes is computed from chirp-z output shapes,"
              " not measured")
        return
    raw = res["raw"]
    print(f"# times are divided by the slow-down factor {res['speed_factor']:.4f} measured by the"
          " calibration kernel (perfbench/calibration.py); raw figures in brackets")
    print(f"setup_s = {fmt(values['setup_s'])} s  [{fmt(raw['setup_s'])}]"
          f"  (median of {PARTS} fresh starts)")
    print(f"wall_s = {fmt(values['wall_s'])} s  [{fmt(raw['wall_s'])}]"
          + ("  (command session)" if args.workload == "cli-session"
             else f"  (fixed anchor batch, median of {PARTS} workers)"))
    print(f"{rate_name} = ops_per_s = {fmt(values['ops_per_s'])} 1/s  [{fmt(raw['ops_per_s'])}]")
    if args.workload == "cli-session":
        print("# latencies are per session; per command (scaled): "
              + ", ".join(f"{label} {fmt(x)} s" for label, x in res["command_times"]))
    print(f"latency_p50_ms = {fmt(values['latency_p50_ms'])} ms  [{fmt(raw['latency_p50_ms'])}]"
          f"  (n={res['samples']})")
    print(f"latency_tail_ms = {fmt(values['latency_tail_ms'])} ms  [{fmt(raw['latency_tail_ms'])}]"
          f"  (p{res['tail_pct']:.2f}, n={res['samples']}, {res['tail_beyond']} beyond)")
    print(f"max_abs_err = {values['max_abs_err']:.3e}  (fixed anchor outputs; over every"
          f" checked output: {res['max_abs_err_all']:.3e})")
    print(f"error_rate = {res['failed'] / res['attempted']:.6g}"
          f"  ({res['failed']} of {res['attempted']})")
    print(f"peak_rss_mb = {fmt(values['peak_rss_mb'])} MB")
    if "repeat_share" in res:
        print(f"# repeat_share = {res['repeat_share']:.3f} (ops whose state an earlier op used)")
    for key, value in sorted(res.get("stats", {}).items()):
        print(f"# share {key} = {value:.3f}")


if __name__ == "__main__":
    sys.exit(main())
