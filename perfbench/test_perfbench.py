"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

The smoke mode must pass end to end, and every correctness check must fail
when the output it reads is perturbed past its tolerance.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()
import workloads as wl  # noqa: E402

CASES = [(name, kind) for name, w in wl.WORKLOADS.items() for kind in w.kinds]


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"correct": True, "attempted": len(CASES), "failed": 0, "metrics": {}}


@pytest.mark.parametrize("name,kind", CASES)
def test_every_check_fails_on_perturbed_output(name, kind):
    workload = wl.WORKLOADS[name]
    inp = workload.make_inputs(kind, 0, run.SMOKE_N)
    out = workload.unit(inp)
    checks = workload.checks(inp, out)
    assert wl.failed_checks(out, checks) == []
    for check in checks:
        perturbed = dict(out)
        perturbed[check.key] = np.asarray(out[check.key]) + 10.0 * check.tol
        assert check.name in wl.failed_checks(perturbed, checks), check


def test_nan_output_fails():
    check = wl.Check("finite", "x", 0.0, 1.0)
    assert wl.failed_checks({"x": np.array([0.0, np.nan])}, [check]) == ["finite"]
