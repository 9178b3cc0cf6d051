"""Regenerate the reference verdicts the benchmark checks sweeps against.

Usage (from the repository root; takes several minutes):

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs the exhaustive sweep behind every workload (d = 3 at degree 6,
d = 5 at degree 1), so each reference covers every case any seed can
draw.  Each case is stored as its triple, a digest of
its initial ideal, good initial ideal and per-degree counting table, and
the number of generators of its initial ideal (which the d5_groebner
workload uses to shape its draws).  The file keeps the sweep's case
order, from which the benchmark predicts what a sampled sweep draws.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEPS = ((3, 6), (5, 1))


def reference_path(d: int, max_degree: int) -> str:
    return os.path.join(HERE, "reference", f"d{d}_deg{max_degree}.json")


def case_digest(case: dict) -> str:
    """Digest of the parts of a verdict that must never change."""
    payload = {k: case[k] for k in ("initial_ideal", "good_initial", "per_degree")}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:20]


def write_reference(report: dict) -> str:
    cases = report["cases"]
    if not report["all_ok"]:
        raise SystemExit("refusing to record a sweep whose verdicts failed")
    d, max_degree = cases[0]["d"], cases[0]["max_degree"]
    reference = {
        "d": d,
        "max_degree": max_degree,
        "field": cases[0]["field"],
        "cases": [
            [c["alpha"], c["beta"], c["gamma"], case_digest(c), len(c["initial_ideal"])]
            for c in cases
        ],
    }
    path = reference_path(d, max_degree)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("{\n")
        for key in ("d", "max_degree", "field"):
            fh.write(f"  {json.dumps(key)}: {json.dumps(reference[key])},\n")
        fh.write('  "cases": [\n')
        fh.write(",\n".join("    " + json.dumps(c) for c in reference["cases"]))
        fh.write("\n  ]\n}\n")
    return path


def main() -> int:
    from tancone.verify import report_json, sweep

    for d, max_degree in SWEEPS:
        report = json.loads(report_json(sweep(d, max_degree=max_degree), stable=True))
        print(write_reference(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
