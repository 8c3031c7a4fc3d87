"""`verify` command: run verification suites and write JSON/CSV reports.

    verify --config cfg.json --suites momentum,kobayashi --out report.json
    verify --record momentum_residual:7:64 --out rerun.json

The config names grid_sizes, seeds, kmax and suites; every tolerance is
fixed where its check is declared, in `suites`.  `--record` runs one record
of the config's full run, with the same residual, note and tolerance.  Exit
codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error, including a config that cannot run or cannot fail (a
negative seed, no suites, a suite named twice) and a `--record` seed or N
outside that check's sweep.  The convergence CSV is written next to the
report, as <report stem>_convergence.csv.  Report bodies are deterministic
for a fixed config up to the generated_at timestamp and the wall_time fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
from pathlib import Path

from .suites import SUITE_NAMES, SuiteConfig, convergence_table, run_suites


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run numerical verification suites on the torus laboratory.",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument(
        "--suites",
        type=str,
        default=None,
        help=f"comma-separated subset of: {', '.join(SUITE_NAMES)}",
    )
    parser.add_argument("--out", type=str, default="report.json", help="report path")
    parser.add_argument(
        "--record",
        type=str,
        default=None,
        metavar="NAME:SEED:N",
        help="re-run a single record, e.g. momentum_residual:7:64",
    )
    return parser


def _load_config(path: str | None, suites_csv: str | None) -> SuiteConfig:
    data = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise ValueError(f"cannot read config file {path}: {err}") from err
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(
                f"config {path} is not valid JSON: line {err.lineno}, "
                f"column {err.colno}: {err.msg}"
            ) from err
    config = SuiteConfig.from_dict(data)
    if suites_csv is not None:
        wanted = tuple(s.strip() for s in suites_csv.split(",") if s.strip())
        config = dataclasses.replace(config, suites=wanted)
    return config


def _parse_record(spec: str) -> tuple[str, int, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--record wants NAME:SEED:N, got '{spec}'")
    name, seed_s, n_s = parts
    try:
        return name, int(seed_s), int(n_s)
    except ValueError as err:
        raise ValueError(f"--record seed and N must be integers in '{spec}'") from err


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config, args.suites)
        record = _parse_record(args.record) if args.record else None
        report = run_suites(config, record_filter=record)
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    body = report.to_dict()
    body["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")

    csv_text, warning = convergence_table(report)
    out.with_name(out.stem + "_convergence.csv").write_text(csv_text)
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)

    summary = body["summary"]
    status = "PASS" if summary["overall_pass"] else "FAIL"
    print(
        f"{status}: {summary['passed']}/{summary['total']} checks passed "
        f"in {summary['wall_time']:.1f}s -> {out}"
    )
    for rec in body["records"]:
        if not rec["passed"]:
            print(
                f"  FAIL {rec['suite']}/{rec['name']} seed={rec['seed']} N={rec['n']}: "
                f"residual {rec['residual']:.3e} > {rec['tolerance']:.1e} {rec['note']}",
                file=sys.stderr,
            )
    return 0 if summary["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
