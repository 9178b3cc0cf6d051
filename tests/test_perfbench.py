"""The benchmark in perfbench/ against the current program: its self-test
passes, and a deterministic count it reports holds."""

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import tancone.patch
from tancone.verify import sweep

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    """A dropped trace boundary or a declared per-layer metric gone missing
    fails here, before it reaches the benchmark."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_d5_groebner_seed0_minor_count(monkeypatch):
    """``patch.minors`` of the d5_groebner workload at seed 0: one
    ``pair_minor`` call per 1 x 1 generator over its 60 cases, since the
    larger generators go to the Groebner oracle modulo those variables
    and are classified by their lead records (4,635 calls, one per
    generator, when every generator was a full monic minor)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    workload = run.WORKLOADS["d5_groebner"]
    cli_seed, expected = run.choose_draw(workload, 0, run.load_reference(workload))
    calls = 0
    pair_minor = tancone.patch.pair_minor

    def counted(*args):
        nonlocal calls
        calls += 1
        return pair_minor(*args)

    monkeypatch.setattr(tancone.patch, "pair_minor", counted)
    verdicts = sweep(5, max_degree=1, sample=workload.sample, seed=cli_seed)
    assert len(verdicts) == len(expected) == 60
    assert calls == 396


def test_traced_sweep_reports_every_declared_layer(monkeypatch, tmp_path):
    """One traced sweep through the benchmark's runner, as the self-test
    makes them: every per-layer metric BENCHMARK.json declares is present
    and nonzero, so an entry point that a change renames or bypasses
    cannot leave a metric missing or stuck at 0.  ``trace.overhead`` is
    left out; it needs a plain sweep beside the traced one."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    runner = run.Runner(str(tmp_path), time.monotonic() + 120)
    out = str(tmp_path / "report.json")
    result = runner.spawn(["sweep", "--d", "3", "--max-degree", "1", "--out", out], traced=True)
    assert result is not None and result["exit_code"] == 0
    metrics = run.layer_metrics(result["trace"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead"}
    assert sorted(name for name in declared if not metrics.get(name)) == []
