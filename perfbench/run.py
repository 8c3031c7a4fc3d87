"""Benchmark of torusgeom: one workload, one seed, one process.

    python3 perfbench/run.py --workload flow-n64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run builds the workload's seeded inputs, runs one untimed warm-up unit, then
repeats whole rounds of timed units (one unit of each kind per round) until
``--seconds`` of unit time have been measured, checking every unit's outputs.
The last line of standard output is one JSON object: ``correct``,
``attempted`` (units run), ``failed`` (units that raised or failed a check)
and ``metrics``.

With ``--trace 0`` the metrics are end to end: ``unit_cost``, a unit's time in
units of the workload's reference kernel timed next to it (median per kind,
averaged over the kinds); ``setup_s``, the median over several fresh processes
of the time from process start to the end of the warm-up unit, scaled by the
reference kernel to a fixed machine speed; and ``peak_rss_mb`` of this process.
With ``--trace 1`` they are per layer, from spans around the program's public
calls, and the run also times the layer primitives at N = 32..256 (see
ladder.py).  Results and traces are also written to ``.perfbench/`` in the
checkout.  README.md explains the choices.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# One BLAS thread: two made units ~18% faster at 1.6x the CPU time, but tie a
# unit's time to the second vCPU being free, and the reference kernels that
# normalise it are single-threaded (see README.md).
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
REFS_PER_PROBE = 3
SMOKE_N = 64
WORKLOAD_NAMES = ("flow-n64", "geometry-n128", "holonomy-n128")
READY = "ready"


def load_program():
    """Pin BLAS, then import torusgeom from this checkout's src/ and nowhere else."""
    os.environ.update(BLAS_PIN)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import torusgeom

    found = Path(torusgeom.__file__).resolve().parent
    if found != src / "torusgeom":
        raise ImportError(f"torusgeom was imported from {found}, not from {src}")
    return torusgeom


def build_inputs(workload, seed: int, n: int) -> dict:
    return {kind: workload.make_inputs(kind, seed, n) for kind in workload.kinds}


def run_unit(workload, inp: dict) -> tuple[float, list[str]]:
    """Time one unit; returns (seconds, names of failed checks)."""
    import workloads as wl

    start = time.perf_counter()
    try:
        out = workload.unit(inp)
    except Exception:  # a raising unit is one failed operation; the run goes on
        traceback.print_exc()
        return time.perf_counter() - start, ["raised"]
    elapsed = time.perf_counter() - start
    return elapsed, wl.failed_checks(out, workload.checks(inp, out))


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process to the end of its warm-up unit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if code != 0 or line != READY:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line}{rest}")
    return elapsed


def timed_rounds(workload, inputs: dict, seconds: float, probe=None, tracer=None):
    """Whole rounds of units until ``seconds`` of units have been timed.

    The workload's reference kernel runs between consecutive units, so every
    unit has a reference time measured just before and just after it.  When
    ``probe`` is given it is called SETUP_PROBES times, spread over the run;
    each set-up sample is (probe seconds, median reference time around it).
    """
    ratios = {kind: [] for kind in workload.kinds}
    times = {kind: [] for kind in workload.kinds}
    setups = []
    attempted = failed = 0
    timed = 0.0
    ref_before = _time(workload.reference)
    while True:
        if probe is not None and len(setups) < SETUP_PROBES \
                and timed >= len(setups) * seconds / SETUP_PROBES:
            refs = [_time(workload.reference) for _ in range(REFS_PER_PROBE)]
            raw = probe()
            refs += [_time(workload.reference) for _ in range(REFS_PER_PROBE)]
            setups.append((raw, statistics.median(refs)))
            ref_before = refs[-1]
        for kind in workload.kinds:
            if tracer is not None:
                tracer.unit = attempted
            elapsed, bad = run_unit(workload, inputs[kind])
            if tracer is not None:
                tracer.unit = None
            ref_after = _time(workload.reference)
            attempted += 1
            timed += elapsed
            if bad:
                failed += 1
                print(f"unit {attempted} ({kind}) failed: {', '.join(bad)}", file=sys.stderr)
            else:
                times[kind].append(elapsed)
                ratios[kind].append(2.0 * elapsed / (ref_before + ref_after))
            ref_before = ref_after
        if timed >= seconds and len(setups) == (SETUP_PROBES if probe else 0):
            return ratios, times, setups, attempted, failed


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_per_kind(samples: dict) -> float:
    """The median of each kind's samples, averaged over the kinds."""
    medians = [statistics.median(s) for s in samples.values() if s]
    return sum(medians) / len(medians) if medians else float("nan")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpus": os.cpu_count(), "blas_pin": BLAS_PIN}


def write_json(name: str, data: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(data))


def smoke() -> int:
    """One unit of every kind of every workload at N=SMOKE_N."""
    import workloads as wl

    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        workload = wl.WORKLOADS[name]
        for kind, inp in build_inputs(workload, 0, SMOKE_N).items():
            elapsed, bad = run_unit(workload, inp)
            attempted += 1
            failed += bool(bad)
            status = "ok" if not bad else "FAILED " + ", ".join(bad)
            print(f"{name} {kind} N={SMOKE_N}: {1e3 * elapsed:.1f} ms {status}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one unit per kind at small N")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    load_program()
    import workloads as wl

    if args.smoke:
        return smoke()
    workload = wl.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = build_inputs(workload, args.seed, workload.n)
    _, bad = run_unit(workload, inputs[workload.kinds[0]])  # warm-up
    if args.setup_probe:
        print(READY if not bad else f"warm-up failed: {bad}", flush=True)
        return 0 if not bad else 1
    probe = None if args.trace else (lambda: probe_setup(args.workload, args.seed))
    ratios, times, setups, attempted, failed = timed_rounds(
        workload, inputs, args.seconds, probe, tracer)
    unit_cost = median_per_kind(ratios)

    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = statistics.median(raw * workload.reference_s / ref for raw, ref in setups)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "unit_cost": {"value": unit_cost, "unit": "ref"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MiB"}}
    else:
        import ladder

        metrics = tracer.per_layer(attempted)
        metrics["traced_unit_cost"] = {"value": unit_cost, "unit": "ref"}
        spans = len(tracer.spans)
        write_json(f"trace-{args.workload}-seed{args.seed}.json", {
            "environment": environment(),
            "per_layer": metrics,
            "ladder_ms": ladder.ladder(args.workload, args.seed),
            "span_fields": ["name", "start", "end", "parent", "unit", "work"],
            "spans": tracer.spans[:spans],
        })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    write_json(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        **result, "setup_samples_s": setups,
        "unit_ms_by_kind": {k: [1e3 * x for x in t] for k, t in times.items()},
        "unit_cost_by_kind": ratios,
    })
    print(f"{args.workload} seed {args.seed}: {attempted} units, {failed} failed, "
          f"unit cost {unit_cost:.4f} ref", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
