"""Measure the cost of every d = 5, degree 1 case the d5_groebner workload may draw.

Usage (from the repository root; takes about fifteen minutes):

    PYTHONPATH=src python3 perfbench/make_costs.py [--passes 4] [--jobs 2]

Each pass runs, in a fresh interpreter, one case per beta to fill the
tables the package caches per beta and per d, and then every eligible
case of the exhaustive d = 5 sweep at degree 1 (see ``run.d5_eligible``)
once, in sweep order.  A sweep fills those tables once per beta, so a
case's own cost is its time with them filled; the cost of a case is its
least wall time over the passes, in milliseconds.  The
costs are written to reference/d5_deg1_cost.json, one per reference
entry (null for cases that are never drawn), and run.py uses them to give
every seed's draw the same total cost.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
COST_PATH = os.path.join(HERE, "reference", "d5_deg1_cost.json")


def one_pass(indices: list[int]) -> list[float]:
    """Wall seconds of each listed case of the d = 5 sweep, in this process."""
    from tancone.verify import CaseSpec, all_triples, verify_case

    cases = [
        CaseSpec(d=5, alpha=a, beta=b, gamma=g, field="Q", max_degree=1)
        for a, b, g in all_triples(5)
    ]
    for case in {case.beta: case for case in map(cases.__getitem__, indices)}.values():
        verify_case(case)
    times = []
    for i in indices:
        start = time.perf_counter()
        verdict = verify_case(cases[i])
        times.append(time.perf_counter() - start)
        if not verdict.ok:
            raise SystemExit(f"case {i} did not verify")
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--pass-of", help=argparse.SUPPRESS)
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    from run import WORKLOADS, load_reference

    reference = load_reference(WORKLOADS["d5_groebner"])
    if args.pass_of is not None:
        indices = json.loads(args.pass_of)
        json.dump(one_pass(indices), sys.stdout)
        return 0

    accept = WORKLOADS["d5_groebner"].eligible
    indices = [i for i, entry in enumerate(reference) if accept(entry)]
    cmd = [sys.executable, os.path.abspath(__file__), "--pass-of", json.dumps(indices)]
    best = [float("inf")] * len(indices)
    done = 0
    while done < args.passes:
        batch = min(args.jobs, args.passes - done)
        procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE) for _ in range(batch)]
        for proc in procs:
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise SystemExit(f"a pass failed with code {proc.returncode}")
            best = [min(x, y) for x, y in zip(best, json.loads(out))]
        done += batch
        print(f"{done} passes, total {sum(best):.2f} s", file=sys.stderr)

    costs: list[float | None] = [None] * len(reference)
    for i, seconds in zip(indices, best):
        costs[i] = round(seconds * 1000, 2)
    with open(COST_PATH, "w") as fh:
        fh.write('{\n  "unit": "ms",\n  "passes": %d,\n  "cost": [\n' % args.passes)
        fh.write(",\n".join("    " + json.dumps(c) for c in costs))
        fh.write("\n  ]\n}\n")
    print(COST_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
