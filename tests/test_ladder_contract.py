"""The benchmark's reference ladder still runs against the program.

Only `perfbench/run.py --trace 1` reaches `perfbench/ladder.py`, and it calls
parts of the program no workload unit calls: `DiscreteDiffeo` without
`det_forward`, `VectorField` components, `fields.partial`, an `Interpolator`
over six `ScalarField`s and `momentum_residual` at its default trace gate.
This runs one row of each workload's ladder at a small N in a fresh process.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LADDER_ROWS = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import run
run.load_program()
import ladder

print(json.dumps({{"flow": ladder._flow_row(32, 0), "geometry": ladder._geometry_row(64, 0),
                  "holonomy": ladder._holonomy_row(32, 0)}}))
"""


def test_one_ladder_row_of_every_workload_gives_finite_positive_figures():
    proc = subprocess.run([sys.executable, "-c", LADDER_ROWS], capture_output=True,
                          text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "momentum_residual" in rows["geometry"]
    figures = {f"{row}.{name}": ms for row, table in rows.items() for name, ms in table.items()}
    assert figures and all(math.isfinite(ms) and ms > 0 for ms in figures.values()), figures
