"""Self-test of the benchmark's tracing.

Usage, from the repository root:  python3 perfbench/selftest.py

Runs a tiny traced sweep (d = 2) twice in fresh interpreters and checks
that every count metric repeats exactly, that every child span lies
inside its parent with non-negative self time, that a plain sweep times
each of its cases within the sweep's own time with a speed probe on
either side of every case, and that BENCHMARK.json
names exactly the metrics and workloads the benchmark produces.  Exits 1
on the first failed check.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import run

SWEEP = ["sweep", "--d", "2", "--max-degree", "4"]


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def traced_sweep(runner: run.Runner) -> dict:
    out = os.path.join(runner.workdir, f"report-{runner.spawned}.json")
    result = runner.spawn([*SWEEP, "--out", out], traced=True)
    if result is None or result["exit_code"] != 0:
        fail("traced sweep did not verify")
    trace = result["trace"]
    errors = run.nesting_errors(trace["spans"])
    if errors:
        fail("spans do not nest: " + "; ".join(errors[:5]))
    if trace["missing"]:
        print("warning: absent boundaries:", ", ".join(trace["missing"]))
    return run.layer_metrics(trace)


def plain_sweep(runner: run.Runner) -> None:
    out = os.path.join(runner.workdir, f"report-{runner.spawned}.json")
    result = runner.spawn([*SWEEP, "--out", out])
    if result is None or result["exit_code"] != 0:
        fail("plain sweep did not verify")
    with open(out) as fh:
        cases = len(json.load(fh)["cases"])
    for key, total in (("case_s", "sweep_s"), ("case_cpu_s", "cpu_s")):
        times = result.get(key)
        if times is None:
            print(f"warning: no per-case times ({key}); the case boundary is absent")
            return
        if len(times) != cases:
            fail(f"{len(times)} per-case times for {cases} cases")
        if min(times) < 0 or sum(times) > result[total]:
            fail(f"per-case times ({sum(times)} s) do not fit in {total} ({result[total]} s)")
    for key in ("probe_s", "probe_cpu_s"):
        if len(result[key]) != cases + 2 or min(result[key]) <= 0:
            fail(f"{len(result[key])} probes ({key}) around {cases} cases")
    print(f"ok: a plain sweep timed its {cases} cases within its own time, between probes")


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        runner = run.Runner(workdir, time.monotonic() + run.RUN_LIMIT_S)
        first, second = traced_sweep(runner), traced_sweep(runner)
        plain_sweep(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(run.WORK):
            os.rmdir(run.WORK)

    # everything but times and the time shares is a count or a ratio of counts
    counts = sorted(k for k in first if not k.endswith("_s") and not k.startswith("share."))
    if set(first) != set(second):
        fail(f"metric names differ between runs: {set(first) ^ set(second)}")
    for key in counts:
        if first[key] != second[key]:
            fail(f"{key} is {first[key]} then {second[key]}")
    print(f"ok: {len(counts)} count metrics repeat exactly; spans nest")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {k: run.layer_unit(k) for k in [*first, "trace.overhead"]}
    if declared != produced:
        fail(f"BENCHMARK.json per_layer differs from the trace: {set(declared.items()) ^ set(produced.items())}")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        fail(f"BENCHMARK.json end_to_end differs: {e2e} != {run.END_TO_END_UNITS}")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    print("ok: BENCHMARK.json matches the metrics and workloads produced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
