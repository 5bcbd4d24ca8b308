"""Smoke runs of the benchmark harness against the package as it stands, so
a renamed or deleted name that the harness calls fails here first. Each run
also checks every artifact against the harness's own sparse-direct
reference (``perfbench/checks.py``): sample1d covers the 1D kernels and the
sampler, dense2d the 2D kernels and the convergence study, cg1d plain CG and
the 1D lambda_min at about 1,000 dofs."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sample1d", "dense2d", "cg1d"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


def test_traced_run_reaches_the_hybrid_table():
    # hybrid_failed_draws swaps in cli.make_blackbox_pair and
    # cli.hybrid_experiment and calls cli.lowerbound_hybrid_table; a changed
    # signature would make it report the table absent or count failed draws
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample1d", "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] is True, last
    assert last["metrics"]["lowerbounds.hybrid_failed_draws"]["value"] == 0
    absent = next(line for line in lines if line.startswith("absent layers:"))
    assert "qfemlab.cli.lowerbound_hybrid_table" not in absent
