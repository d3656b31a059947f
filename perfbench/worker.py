"""One measured process of an in-process workload; ``run.py`` starts it.

    python3 perfbench/worker.py <spec.json> <result.json>

The spec names the workload, seed, part, time budget (or a fixed op count)
and whether to trace.  The process imports the package, builds the inputs,
builds the references (timed separately and left out of set-up time), warms
up, then runs the closed loop and writes the result file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


#: a part stops after this many times its budget in wall time even when the
#: machine ran so slow that its scaled op time is still short of the budget
WALL_CAP = 1.5


def measure(workload, budget_s: float | None, max_ops: int | None, meter=None) -> dict:
    """Closed loop: time each op alone; check it, and sample ``meter``, outside the timed region.

    The loop runs until the ops' scaled time (at reference machine speed)
    reaches ``budget_s``, so a run does about the same work whether the
    machine is in a fast or a slow spell, or until ``max_ops`` ops.
    """
    from calibration import SpeedMeter
    from workloads import Check

    meter = meter or SpeedMeter(workload.calibration)
    meter.sample(2)
    latencies: list[float] = []
    marks: list[int] = []
    failed = 0
    worst = 0.0
    notes: list[str] = []
    perf = time.perf_counter
    start = perf()
    scaled_s = 0.0
    i = 0
    while True:
        item = workload.next_input(i)
        marks.append(meter.mark())
        t0 = perf()
        try:
            out = workload.op(item)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            out, error = None, exc
        latencies.append(perf() - t0)
        meter.after_op(latencies[-1])
        scaled_s += latencies[-1] / meter.factor(meter.mark())
        check = Check()
        if error is None:
            workload.check(item, out, check)
        else:
            check.fail(f"op raised {type(error).__name__}: {error}")
        worst = max(worst, check.worst)
        if not check.ok:
            failed += 1
            notes.extend(check.notes[:2])
        i += 1
        if max_ops is not None and i >= max_ops:
            break
        if max_ops is None and (scaled_s >= budget_s or perf() - start >= WALL_CAP * budget_s):
            break
    return {"latencies": latencies,
            "scaled": [lat / meter.factor(m) for lat, m in zip(latencies, marks)],
            "failed": failed, "max_abs_err": worst,
            "notes": notes[:10], "repeats": workload.repeats,
            "stats": dict(workload.stats), "round_size": workload.round_size}


def check_anchors(workload, meter) -> dict:
    """Run and check the fixed anchor inputs after the loop.

    Their total op time is wall_s and their worst deviation is max_abs_err:
    the anchors are the same in every run, so both compare like with like.
    """
    from workloads import Check

    worst, failed, notes, elapsed, scaled = 0.0, 0, [], 0.0, 0.0
    for item in workload.anchors:
        check = Check()
        meter.sample()
        mark = meter.mark()
        t0 = time.perf_counter()
        try:
            out = workload.op(item)
        except Exception as exc:  # a raising anchor counts as failed
            out = None
            check.fail(f"anchor raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        meter.sample()
        elapsed += seconds
        scaled += seconds / meter.factor(mark, width=1)
        if out is not None:
            workload.check(item, out, check)
        worst = max(worst, check.worst)
        failed += int(not check.ok)
        notes.extend(check.notes[:2])
    return {"anchors": len(workload.anchors), "anchor_failed": failed, "anchor_s": elapsed,
            "anchor_scaled": scaled,
            "anchor_max_abs_err": worst, "anchor_notes": notes[:10]}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.install()
    import wigentropy as wg
    import workloads
    from calibration import SpeedMeter

    cls = workloads.WORKLOADS[spec["workload"]]
    args = (wg, spec["seed"], spec["part"], spec["parts"], spec["budget_s"])
    if cls is workloads.EntropyStream:
        args += (workloads.load_references(),)
    workload = cls(*args)
    before_refs = tracer.summary() if tracer else None
    t_refs = time.monotonic()
    workload.build_references()
    refs_s = time.monotonic() - t_refs
    after_refs = tracer.summary() if tracer else None
    workload.warm_up()
    setup_s = time.monotonic() - spec["spawned_at"] - refs_s
    meter = SpeedMeter(workload.calibration)
    result = measure(workload, spec["budget_s"], spec.get("max_ops"), meter)
    final = tracer.summary() if tracer else None  # before the anchors
    result.update(check_anchors(workload, meter))
    result.update(setup_s=setup_s, setup_scaled=setup_s / meter.factor(0),
                  speed_factor=meter.factor(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        # reference building is the benchmark's work, not the workload's
        result["layers"] = {k: final[k] - (after_refs[k] - before_refs[k]) for k in final}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
