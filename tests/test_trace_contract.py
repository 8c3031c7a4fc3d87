"""The benchmark's per-layer trace still reaches every program layer it names.

`perfbench/tracing.py` wraps program functions by name, so renaming one of
them breaks `perfbench/run.py --trace 1` while `--smoke` still passes.  This
runs the trace path (`Tracer.install()`, then one round of units at
`run.SMOKE_N` through `run.timed_rounds`) in a fresh process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACE_ROUND = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import run
run.load_program()
import workloads as wl
from tracing import Tracer

tracer = Tracer()
tracer.install()
units = failed = 0
for name in run.WORKLOAD_NAMES:
    workload = wl.WORKLOADS[name]
    inputs = run.build_inputs(workload, 0, run.SMOKE_N)
    _, _, _, attempted, bad = run.timed_rounds(workload, inputs, 0.0, None, tracer)
    units += attempted
    failed += bad
metrics = tracer.per_layer(units)
print(json.dumps({{"units": units, "failed": failed,
                  "per_layer": {{k: v["value"] for k, v in metrics.items()}}}}))
"""


def test_a_traced_round_of_every_workload_produces_every_per_layer_metric():
    proc = subprocess.run([sys.executable, "-c", TRACE_ROUND], capture_output=True,
                          text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["units"] > 0 and out["failed"] == 0, proc.stderr
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # run.py adds traced_unit_cost from the unit timings; every other metric is a span's
    assert set(out["per_layer"]) == declared - {"traced_unit_cost"}
    unreached = sorted(name for name, value in out["per_layer"].items() if not value > 0)
    assert unreached == []
