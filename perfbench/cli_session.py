"""The ``cli-session`` workload: one caller runs a sequence of CLI commands.

Each command is its own ``python -m wigentropy.cli`` process, so the session
pays interpreter start and package import once per command, as users do.
No flag is passed that the project plans to remove (``--jobs`` on
``sigma-table``, ``--seed`` on ``region2``): ``sigma-table`` keeps its
default pool.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import threading
import time

import numpy as np

from calibration import SpeedMeter
from workloads import LN_PI_1, TOL_BOUND, TOL_IDENTITY, TOL_REFERENCE, Check

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND_TIMEOUT_S = 170
TOL_PRINTED = 1e-12  # closed forms against values printed with 15 significant digits
REGION_SAMPLES = 128
#: pause between calibration samples taken while a command runs
SAMPLE_GAP_S = 0.05
#: commands whose output is the same in every run: max_abs_err is taken over them
ANCHOR_COMMANDS = ("sigma_table", "region2")


def commands(fock_path: str, gauss_path: str, seed: int) -> list[tuple[str, list[str]]]:
    return [
        ("entropy", ["entropy", fock_path, "--renyi", "2"]),
        ("entropy", ["entropy", gauss_path, "--renyi", "2"]),
        ("sigma_table", ["sigma-table", "--max", "10"]),
        ("region2", ["region2", "--samples", str(REGION_SAMPLES)]),
        ("verify_epi", ["verify", "--suite", "epi", "--seed", str(seed)]),
    ]


#: Fock-file states: the seed picks one; equal length and near-equal cost
#: (94-106 ms of entropy work), so the command's time does not hinge on the draw
FOCK_FILE_STATES = ("sigma(2,8)", "sigma(3,7)", "sigma(4,6)", "sigma(5,5)")


def make_inputs(seed: int, references: dict, workdir: str):
    """A Fock file holding a reference state and a Gaussian file, both seeded."""
    rng = np.random.default_rng([seed, 7])
    name = FOCK_FILE_STATES[int(rng.integers(len(FOCK_FILE_STATES)))]
    probs = references[name]["probs"]
    theta, s = rng.uniform(0.0, math.pi), rng.uniform(-1.0, 1.0)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    sym = rot @ np.diag([math.exp(s), math.exp(-s)])
    cov = rng.uniform(0.5, 2.0) * sym @ sym.T
    mean = rng.uniform(-2.0, 2.0, 2)
    fock_path = os.path.join(workdir, "fock.json")
    gauss_path = os.path.join(workdir, "gauss.json")
    with open(fock_path, "w", encoding="utf-8") as fh:
        json.dump({"fock_probs": probs.tolist()}, fh)
    with open(gauss_path, "w", encoding="utf-8") as fh:
        json.dump({"gaussian": {"mean": mean.tolist(), "cov": cov.tolist()}}, fh)
    return fock_path, gauss_path, {"name": name, "probs": probs,
                                   "h": references[name]["h"], "cov": cov}


def _key_values(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = float(value)
    return out


def _data_rows(text: str) -> list[list[str]]:
    """CSV rows after the '#' header line and the column-name line."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_fock_entropy(text: str, state: dict, check: Check) -> None:
    got = _key_values(text)
    purity = float(np.dot(state["probs"], state["probs"]))
    check.close(f"h_wigner {state['name']}", got["h_wigner"], state["h"], TOL_REFERENCE)
    check.close("h_renyi_2", got["h_renyi_2"], math.log(2.0 * math.pi / purity), TOL_IDENTITY)
    check.at_least("h_wehrl", got["h_wehrl"], LN_PI_1 - TOL_BOUND)
    check.close("purity", got["purity"], purity, TOL_PRINTED)
    check.close("margin", got["margin_above_ln_pi_plus_1"], got["h_wigner"] - LN_PI_1, TOL_PRINTED)


def check_gauss_entropy(text: str, state: dict, check: Check) -> None:
    got = _key_values(text)
    cov = state["cov"]
    base = math.log(2.0 * math.pi * math.sqrt(np.linalg.det(cov)))
    husimi = 0.5 * cov + 0.25 * np.eye(2)
    check.close("gaussian h_wigner", got["h_wigner"], base + 1.0, TOL_PRINTED)
    check.close("gaussian h_renyi_2", got["h_renyi_2"], base + math.log(2.0), TOL_PRINTED)
    check.close("gaussian h_wehrl", got["h_wehrl"],
                math.log(2.0 * math.pi * math.sqrt(np.linalg.det(husimi))) + 1.0, TOL_PRINTED)
    check.close("gaussian purity", got["purity"],
                1.0 / (2.0 * math.sqrt(np.linalg.det(cov))), TOL_PRINTED)


def check_sigma_table(text: str, references: dict, check: Check) -> None:
    rows = _data_rows(text)
    cells = {(int(m), int(n)): float(v) for m, n, v in rows}
    if sorted(cells) != [(m, n) for m in range(11) for n in range(11)]:
        check.fail(f"sigma-table: expected 121 cells, got {len(cells)}")
        return
    for (m, n), value in cells.items():
        ref = references[f"sigma({min(m, n)},{max(m, n)})"]["h"]
        check.close(f"sigma({m},{n})", value, ref, TOL_REFERENCE)


def check_region2(text: str, check: Check) -> None:
    counts = {"arc": 0, "facet": 0, "tangent": 0}
    radii = []
    for row in _data_rows(text):
        kind = row[0]
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "arc":
            a, p1, p2, t = map(float, row[1:5])
            check.close("arc p1", p1, 0.5 * math.sqrt(1.0 - a * a), TOL_PRINTED)
            check.close("arc p2", p2, 0.25 * (a + 1.0), TOL_PRINTED)
            check.close("arc tangency", t, 2.0 - (0.5 * math.sqrt(1.0 - a * a)) / (0.25 * (a + 1.0)),
                        TOL_PRINTED)
        elif kind == "facet":
            p1, p2, t = map(float, row[2:5])
            check.close("facet p1", p1, 0.5, TOL_PRINTED)
            check.close("facet tangency", t, 0.0, TOL_PRINTED)
            if not 0.0 <= p2 <= 0.25:
                check.fail(f"facet p2 {p2!r} outside [0, 1/4]")
        elif kind == "tangent":
            r = float(row[1])
            c1, c2, c0 = map(float, row[5:8])
            radii.append(r)
            check.close("tangent p1 coefficient", c1, 2.0 * r * r - 2.0, TOL_PRINTED)
            check.close("tangent p2 coefficient", c2, 2.0 * r**4 - 4.0 * r * r, TOL_PRINTED)
            check.close("tangent constant", c0, 1.0, TOL_PRINTED)
        else:
            check.fail(f"region2: unknown row kind {kind!r}")
    if counts["arc"] != REGION_SAMPLES or counts["facet"] != REGION_SAMPLES:
        check.fail(f"region2: row counts {counts}")
    for anchor in (2.0 ** -0.5, 1.0, 2.0 ** 0.5):
        if not any(abs(r - anchor) <= TOL_PRINTED for r in radii):
            check.fail(f"region2: anchor radius {anchor!r} missing")


def check_command(label: str, index: int, proc, state: dict, references: dict,
                  check: Check) -> None:
    if proc.returncode != 0:
        check.fail(f"{label} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    try:
        if label == "entropy":
            (check_fock_entropy if index == 0 else check_gauss_entropy)(proc.stdout, state, check)
        elif label == "sigma_table":
            check_sigma_table(proc.stdout, references, check)
        elif label == "region2":
            check_region2(proc.stdout, check)
        elif not proc.stdout.startswith("[PASS] epi"):
            check.fail(f"verify epi did not pass: {proc.stdout.strip()[:300]}")
    except (KeyError, ValueError) as exc:
        check.fail(f"{label}: cannot parse output: {exc!r}")


def timed_run(argv: list[str], env: dict, root: str, meter: SpeedMeter):
    """(seconds, scaled seconds, completed process) of one command.

    A thread samples the calibration kernel while the command runs, on the
    core the command leaves idle, so the factor is the machine's speed
    during the command itself.
    """
    stop = threading.Event()
    mark = meter.mark()

    def sampler():
        while not stop.wait(SAMPLE_GAP_S):
            meter.sample()

    thread = threading.Thread(target=sampler, daemon=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    thread.start()
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        seconds = time.perf_counter() - t0
        stop.set()
        thread.join()
    if meter.mark() == mark:  # shorter than one sampling gap
        meter.sample()
    done = subprocess.CompletedProcess(argv, proc.returncode, out, err)
    return seconds, seconds / meter.factor_since(mark), done


def run_session(argv_prefix: list[str], cmds, env: dict, root: str, stats_dir: str | None,
                meter: SpeedMeter):
    """Run the commands in order; return [(label, seconds, scaled seconds, proc)]."""
    done = []
    for index, (label, argv) in enumerate(cmds):
        prefix = argv_prefix
        if stats_dir is not None:
            prefix = argv_prefix + [os.path.join(stats_dir, f"stats-{index}.json")]
        done.append((label, *timed_run(prefix + argv, env, root, meter)))
    return done


def import_probe(env: dict, root: str, meter: SpeedMeter) -> tuple[float, float]:
    """(seconds, scaled seconds) of a bare ``import wigentropy.cli`` in a fresh interpreter."""
    seconds, scaled, proc = timed_run([sys.executable, "-c", "import wigentropy.cli"],
                                      env, root, meter)
    if proc.returncode != 0:
        raise RuntimeError(f"import wigentropy.cli failed:\n{proc.stderr[-2000:]}")
    return seconds, scaled


def run(seed: int, seconds: float, trace: bool, references: dict, env: dict, root: str,
        workdir: str, setups: int) -> dict:
    """Set-up probes, then whole sessions while they fit in ``seconds`` (at least one).

    With ``trace`` one plain session is followed by one traced session.
    """
    meter = SpeedMeter()
    probes = [import_probe(env, root, meter) for _ in range(setups)]
    fock_path, gauss_path, state = make_inputs(seed, references, workdir)
    cmds = commands(fock_path, gauss_path, seed)
    plain = [sys.executable, "-m", "wigentropy.cli"]
    sessions, failed, notes = [], 0, []
    worst = worst_all = 0.0
    while True:
        done = run_session(plain, cmds, env, root, None, meter)
        sessions.append(done)
        for index, (label, _, _, proc) in enumerate(done):
            check = Check()
            check_command(label, index, proc, state, references, check)
            worst_all = max(worst_all, check.worst)
            if label in ANCHOR_COMMANDS:
                worst = max(worst, check.worst)
            if not check.ok:
                failed += 1
                notes.extend(check.notes[:2])
        elapsed = sum(cmd[1] for session in sessions for cmd in session)
        if trace or elapsed * (1.0 + 1.0 / len(sessions)) > seconds:
            break
    result = {
        "setup_raw": [p[0] for p in probes], "setup_scaled": [p[1] for p in probes],
        "sessions_raw": [sum(cmd[1] for cmd in session) for session in sessions],
        "sessions_scaled": [sum(cmd[2] for cmd in session) for session in sessions],
        "latencies": [cmd[1] for session in sessions for cmd in session],
        "scaled": [cmd[2] for session in sessions for cmd in session],
        "command_times": [(cmd[0], cmd[2]) for cmd in sessions[0]],
        "speed_factor": meter.factor(), "failed": failed, "max_abs_err": worst,
        "max_abs_err_all": worst_all, "notes": notes[:10], "input": state["name"],
    }
    result["attempted"] = len(result["latencies"])
    if trace:
        result.update(trace_session(cmds, env, root, workdir, state, references, sessions[0]))
        result["attempted"] += len(cmds)
        result["failed"] += result.pop("traced_failed")
        result["notes"] += result.pop("traced_notes")
    # the largest command process (or pool worker) this session waited for
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return result


def trace_session(cmds, env, root, workdir, state, references, plain_session) -> dict:
    """Run the session once more under ``traced_cli.py`` and sum its layer counters."""
    per_command: dict[str, float] = {}
    for label, _, scaled, _ in plain_session:
        per_command[label] = per_command.get(label, 0.0) + scaled
    stats_dir = os.path.join(workdir, "stats")
    os.makedirs(stats_dir, exist_ok=True)
    traced = [sys.executable, os.path.join(HERE, "traced_cli.py")]
    done = run_session(traced, cmds, env, root, stats_dir, SpeedMeter())
    layers: dict[str, float] = {}
    failed, notes = 0, []
    for index, (label, _, _, proc) in enumerate(done):
        check = Check()
        check_command(label, index, proc, state, references, check)
        failed += int(not check.ok)
        notes.extend(check.notes[:2])
        with open(os.path.join(stats_dir, f"stats-{index}.json"), encoding="utf-8") as fh:
            for key, value in json.load(fh).items():
                layers[key] = layers.get(key, 0) + value
    # sigma-table maps its cells in-process when traced, so it is left out of
    # the overhead comparison with the pooled plain run
    plain_rest = sum(cmd[2] for cmd in plain_session if cmd[0] != "sigma_table")
    traced_rest = sum(cmd[2] for cmd in done if cmd[0] != "sigma_table")
    return {"layers": layers, "per_command": per_command,
            "overhead_frac": traced_rest / plain_rest - 1.0,
            "traced_failed": failed, "traced_notes": notes[:10]}
