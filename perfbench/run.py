"""Sweep benchmark for tancone.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each measured sweep is one documented CLI call, ``tancone.cli.main(["sweep",
...])`` writing a JSON report, made in a fresh interpreter (perfbench/child.py)
so the per-beta tables start cold, as they do for a user.  The run repeats
sweeps of one input for about ``--seconds`` seconds (at least
``MIN_SWEEPS``) and reports medians over them of set-up, sweep and CPU
time, each rescaled by a speed probe run next to it to the speed at
which the probe takes REFERENCE_PROBE_S (see README.md for why), and
of memory.  Every report is checked: each verdict must be ``ok``, the set of
cases must be the one the seed draws, and every case's initial ideal, good
initial ideal and counting table must match the reference in
perfbench/reference/.  A failed or mismatched case counts in ``failed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced sweeps of the same input and prints the per-layer metrics of
perfbench/layertrace.py, plus the tracing overhead.  The last line of
standard output is the JSON result; the line before it records provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

from layertrace import layer_metrics, nesting_errors
from make_reference import case_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_SWEEPS = 2
SETUP_SPAWNS = 2  # import-only spawns before each sweep
RUN_LIMIT_S = 170  # every run must end within 180 s
# time of layertrace.speed_probe at the undisturbed speed of the 2-CPU
# virtual machine the benchmark was written on; times are reported at the
# speed at which the probe takes this long
REFERENCE_PROBE_S = 0.0009


@dataclass(frozen=True)
class Workload:
    d: int
    max_degree: int
    sample: int | None = None
    # which reference entries a sampled draw may hold; a draw holding any
    # other is drawn again
    eligible: Callable[[list], bool] | None = None
    # reference/<cost>.json holds a cost per case; a draw is used only when
    # its total cost is within COST_TOLERANCE of the mean draw's
    cost: str | None = None


COST_TOLERANCE = 0.01
D5_MAX_INITIAL = 30


def d5_eligible(entry) -> bool:
    """Cases whose initial ideal has fewer than D5_MAX_INITIAL generators.

    The 30 others (of 4224) take 1 to 12 s each, against about 0.05 s for
    a typical case, and any one of them would swing a sweep several-fold.
    """
    return entry[4] < D5_MAX_INITIAL


WORKLOADS = {
    # the acceptance sweep: counting layers dominate, tables reused 14 times
    "d3_full": Workload(d=3, max_degree=6),
    # Buchberger and patch minors dominate; the counting layers are bypassed
    "d5_groebner": Workload(
        d=5, max_degree=1, sample=60, eligible=d5_eligible, cost="d5_deg1_cost"
    ),
}

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield", ".overhead")) or name.startswith("share."):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# inputs


def load_reference(w: Workload) -> list:
    """Entries [alpha, beta, gamma, digest, initial ideal size], in sweep order."""
    path = os.path.join(HERE, "reference", f"d{w.d}_deg{w.max_degree}.json")
    with open(path) as fh:
        return json.load(fh)["cases"]


def load_costs(w: Workload) -> list:
    with open(os.path.join(HERE, "reference", f"{w.cost}.json")) as fh:
        return json.load(fh)["cost"]


def choose_draw(w: Workload, seed: int, entries):
    """(CLI seed or None, expected reference entries) for this run's sweeps.

    A sampled sweep is drawn the way ``tancone.verify.sweep`` draws it, from
    the reference's case order, so the benchmark knows which cases to
    expect; the program itself only receives the CLI seed.  CLI seeds
    derived from ``seed`` are tried until one draws only eligible cases
    and, when the workload has costs, a total cost near the mean's.
    """
    if w.sample is None:
        return None, entries
    eligible = w.eligible or (lambda entry: True)
    if w.cost:
        costs = load_costs(w)
        pool = [c for entry, c in zip(entries, costs) if eligible(entry)]
        target = w.sample * statistics.fmean(pool)
    rng = random.Random(seed)
    while True:
        cli_seed = rng.randrange(2**31)
        drawn = random.Random(cli_seed).sample(range(len(entries)), w.sample)
        if not all(eligible(entries[i]) for i in drawn):
            continue
        if w.cost and abs(sum(costs[i] for i in drawn) - target) > COST_TOLERANCE * target:
            continue
        return cli_seed, [entries[i] for i in drawn]


def sweep_args(w: Workload, cli_seed, out: str) -> list[str]:
    args = ["sweep", "--d", str(w.d), "--max-degree", str(w.max_degree), "--out", out]
    if w.sample is not None:
        args += ["--sample", str(w.sample), "--seed", str(cli_seed)]
    return args


# ---------------------------------------------------------------------------
# running and checking


class Runner:
    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.spawned = 0
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, cli_args: list[str], traced: bool = False) -> dict | None:
        """Run child.py once; its result with ``setup_s`` added, or None."""
        self.spawned += 1
        result_path = os.path.join(self.workdir, f"result-{self.spawned}.json")
        cmd = [sys.executable, CHILD, result_path, str(int(traced)), *cli_args]
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"child timed out: {' '.join(cli_args)}", file=sys.stderr)
            return None
        except BaseException:
            # interrupted: take the child down with the run
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0 or not os.path.exists(result_path):
            tail = err.decode(errors="replace").strip().splitlines()[-5:]
            print(f"child failed ({proc.returncode}):", *tail, sep="\n  ", file=sys.stderr)
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_wall_s"] = result["ready"] - spawned_at
        result["setup_s"] = result["setup_wall_s"] * REFERENCE_PROBE_S / result["setup_probe_s"]
        return result


def count_failures(w: Workload, report_path: str, expected) -> int:
    """Expected cases that are missing, not ``ok``, or differ from the
    reference; all of them when the report is unreadable or has extra cases."""
    digests = {tuple(entry[:3]): entry[3] for entry in expected}
    try:
        with open(report_path) as fh:
            cases = json.load(fh)["cases"]
        seen = set()
        good = 0
        for case in cases:
            key = (case["alpha"], case["beta"], case["gamma"])
            if key in seen or key not in digests:
                return len(expected)
            seen.add(key)
            if (
                case["groebner_equal"]
                and case["counts_agree"]
                and case["field"] == "Q"
                and case["max_degree"] == w.max_degree
                and case_digest(case) == digests[key]
            ):
                good += 1
            else:
                print(f"case {key} disagrees with the reference", file=sys.stderr)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"unreadable report {report_path}: {exc!r}", file=sys.stderr)
        return len(expected)
    if seen != set(digests):
        return len(expected)
    return len(expected) - good


def at_reference_speed(r: dict, total: str, per_case: str, probe: str) -> float:
    """A sweep's ``total`` rescaled to the speed at which the probe takes
    REFERENCE_PROBE_S.

    ``probe`` holds the probes run before the sweep, before each case
    and after the sweep.  Each case's time is scaled by the mean of the
    probes just before and just after it, and the rest of the sweep by
    the sweep's median probe.  When the sweep has no per-case times (the
    case boundary is gone, or its cases ran in pool workers), the whole
    sweep is scaled by the probes run around it.
    """
    probes, cases = r[probe], r.get(per_case)
    if cases is not None and len(probes) == len(cases) + 2:
        inside = sum(t / ((a + b) / 2) for t, a, b in zip(cases, probes[1:], probes[2:]))
        rest = max(0.0, r[total] - sum(cases) - sum(probes[1:-1]))
    else:
        inside, rest = 0.0, r[total]
    return REFERENCE_PROBE_S * (inside + rest / statistics.median(probes))


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    w = WORKLOADS[name]
    cli_seed, expected = choose_draw(w, seed, load_reference(w))
    start = time.monotonic()
    runner = Runner(workdir, start + RUN_LIMIT_S)
    setups, setup_walls, plain, traced = [], [], [], []
    absent = set()
    attempted = failed = 0
    kernel = None

    def measured_sweep(traced_run: bool):
        nonlocal attempted, failed, kernel
        out = os.path.join(workdir, f"report-{runner.spawned + 1}.json")
        result = runner.spawn(sweep_args(w, cli_seed, out), traced=traced_run)
        attempted += len(expected)
        if result is None:
            failed += len(expected)
            return None
        failed += count_failures(w, out, expected)
        kernel = result["kernel"]
        os.remove(out)
        return result

    rounds = []
    while True:
        t0 = time.monotonic()
        if not trace:
            # spread over the run, so the median sees the machine's phases
            for _ in range(SETUP_SPAWNS):
                result = runner.spawn([])
                if result is not None:
                    setups.append(result["setup_s"])
                    setup_walls.append(result["setup_wall_s"])
        result = measured_sweep(False)
        if result is not None:
            plain.append(result)
            setups.append(result["setup_s"])
            setup_walls.append(result["setup_wall_s"])
        if trace:
            result = measured_sweep(True)
            if result is not None:
                record = result.pop("trace")
                for err in nesting_errors(record["spans"])[:20]:
                    print(f"trace: {err}", file=sys.stderr)
                absent.update(record["missing"])
                result["layers"] = layer_metrics(record)
                traced.append(result)
        rounds.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        enough = len(rounds) >= (1 if trace else MIN_SWEEPS)
        if (enough and elapsed + statistics.median(rounds) > seconds) or elapsed > RUN_LIMIT_S / 2:
            break

    metrics = {}
    if trace:
        if absent:
            print(f"absent boundaries: {', '.join(sorted(absent))}", file=sys.stderr)
        names = set.intersection(*(set(r["layers"]) for r in traced)) if traced else set()
        for key in sorted(names):
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        if plain and traced:
            metrics["trace.overhead"] = min(r["sweep_s"] for r in traced) / min(
                r["sweep_s"] for r in plain
            )
        units = {key: layer_unit(key) for key in metrics}
    else:
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        if plain:
            # see "Timing" in README.md
            metrics["sweep_s"] = statistics.median(
                at_reference_speed(r, "sweep_s", "case_s", "probe_s") for r in plain
            )
            metrics["cpu_s"] = statistics.median(
                at_reference_speed(r, "cpu_s", "case_cpu_s", "probe_cpu_s") for r in plain
            )
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        units = END_TO_END_UNITS

    return {
        "provenance": {
            **provenance(name, seed, kernel),
            "cli_seed": cli_seed,
            # wall times as measured, before rescaling to the reference speed
            "setup_wall_s_median": statistics.median(setup_walls) if setup_walls else None,
            "sweep_s_each": [r["sweep_s"] for r in plain],
            "traced_sweep_s_each": [r["sweep_s"] for r in traced],
        },
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def provenance(name, seed, kernel) -> dict:
    revision = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        revision = proc.stdout.strip() or revision
    return {
        "workload": name,
        "seed": seed,
        "git_revision": revision,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": kernel,
        # the recorded baseline is the pure-Python kernel
        "compiled_kernel": kernel not in (None, "python"),
    }


def print_human(name: str, outcome: dict) -> None:
    result = outcome["result"]
    fail_ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name}: {result['attempted']} cases checked, fail_ratio = {fail_ratio} ratio")
    for key, metric in result["metrics"].items():
        print(f"{name}: {key} = {metric['value']:.6g} {metric['unit']}")
    if outcome["provenance"]["compiled_kernel"]:
        print(f"{name}: WARNING: ran on the compiled kernel", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tancone", "cli.py")):
        print(f"error: no tancone sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # on SIGTERM, unwind so that the child is killed and scratch files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        outcomes = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
            for name in names
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)
    for name, outcome in outcomes.items():
        print_human(name, outcome)
    if args.workload == "all":
        print(json.dumps({name: o["result"] for name, o in outcomes.items()}))
    else:
        print(json.dumps({"provenance": outcomes[args.workload]["provenance"]}))
        print(json.dumps(outcomes[args.workload]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
