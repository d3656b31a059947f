"""Smoke check of the benchmark itself, at minimum sizes.

    python3 perfbench/smoke.py

Run from the repository root; it takes about three minutes.  It runs every
workload untraced and traced for one second each, asserts that the result
line carries every metric ``BENCHMARK.json`` declares, with its unit, and
that the text report names each end-to-end metric.  Then it checks the
checker: one reference entropy is corrupted on purpose, and the closed loop
must count exactly that operation as failed, so it shows in ``error_rate``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload: str, trace: int, declared: list[dict]) -> None:
    text, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, f"{workload}: {text}"
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}, workload
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (workload, metric, got)
        assert isinstance(got["value"], (int, float)), (workload, metric, got)
        if not trace:
            assert f"{metric['name']} = " in text, (workload, metric["name"])
    print(f"ok  {workload:17s} trace={trace}: {len(declared)} metrics with units")


def check_wrong_reference_is_counted() -> None:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import wigentropy
    import worker
    import workloads

    references = workloads.load_references()
    bad = dict(references["sigma(5,7)"])
    bad["h"] += 1e-6
    references["sigma(5,7)"] = bad
    stream = workloads.EntropyStream(wigentropy, 1, 0, 1, 1.0, references)
    # one round: its two "fixed" slots are the vacuum and sigma(5,7)
    result = worker.measure(stream, None, max_ops=stream.round_size)
    attempted = len(result["latencies"])
    assert result["failed"] == 1, result
    assert any("sigma(5,7)" in note for note in result["notes"]), result["notes"]
    print(f"ok  corrupted reference counted: error_rate = {result['failed']}/{attempted}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for workload in (w["name"] for w in declared["workloads"]):
        check_metrics(workload, 0, declared["end_to_end"])
        check_metrics(workload, 1, declared["per_layer"])
    check_wrong_reference_is_counted()
    return 0


if __name__ == "__main__":
    sys.exit(main())
