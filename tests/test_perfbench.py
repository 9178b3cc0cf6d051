"""The benchmark in perfbench/ against the current program: its self-test
passes, and a deterministic count it reports holds."""

import importlib
import subprocess
import sys
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
    ``pair_minor`` call per generator over its 60 cases."""
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
    assert calls == 4635
