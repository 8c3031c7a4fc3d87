"""Compare a `verify` report with the committed golden default report.

    python tests/golden_check.py report.json [golden.json]

Prints every difference that counts and the records within a factor 2 of
their tolerance, and exits 1 if there is a difference.  A difference is a
record missing or added (by suite, name, seed, N), a changed pass/fail,
tolerance, note or other record field, a residual that moved by more than
MOVE_FACTOR unless both values are below MOVE_FLOOR, or a change anywhere
else in the report.  Wall times and the timestamp are not compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden") / "verify_default.json"
MOVE_FACTOR = 10.0
MOVE_FLOOR = 1e-12
MARGIN = 0.5


def strip(report: dict) -> dict:
    """The report without its timestamp and wall times."""
    out = {k: v for k, v in report.items() if k != "generated_at"}
    out["summary"] = {k: v for k, v in report["summary"].items() if k != "wall_time"}
    out["records"] = [{k: v for k, v in r.items() if k != "wall_time"} for r in report["records"]]
    return out


def _key(rec: dict) -> tuple:
    return rec["suite"], rec["name"], rec["seed"], rec["n"]


def _by_key(report: dict) -> dict:
    return {_key(r): r for r in report["records"]}


def _label(key: tuple) -> str:
    suite, name, seed, n = key
    return f"{suite}/{name} seed={seed} N={n}"


def moved_too_far(old: float, new: float) -> bool:
    if max(old, new) < MOVE_FLOOR:
        return False
    lo, hi = sorted((abs(old), abs(new)))
    return lo == 0.0 or hi / lo > MOVE_FACTOR


def compare(golden: dict, report: dict) -> list[str]:
    """Every difference between the two reports that counts, as text."""
    golden, report = strip(golden), strip(report)
    problems = [
        f"{part} differs: {golden.get(part)!r} -> {report.get(part)!r}"
        for part in sorted((set(golden) | set(report)) - {"records"})
        if golden.get(part) != report.get(part)
    ]
    old, new = _by_key(golden), _by_key(report)
    problems += [f"missing {_label(k)}" for k in sorted(old.keys() - new.keys())]
    problems += [f"added {_label(k)}" for k in sorted(new.keys() - old.keys())]
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        for field in sorted((set(a) | set(b)) - {"residual"}):
            if a.get(field) != b.get(field):
                problems.append(f"{_label(key)}: {field} {a.get(field)!r} -> {b.get(field)!r}")
        if moved_too_far(a["residual"], b["residual"]):
            problems.append(f"{_label(key)}: residual {a['residual']:.3e} -> {b['residual']:.3e}")
    return problems


def moved(golden: dict, report: dict) -> list[tuple[str, float, float]]:
    """(record, golden residual, new residual) for every residual that changed."""
    old, new = _by_key(golden), _by_key(report)
    return [
        (_label(k), old[k]["residual"], new[k]["residual"])
        for k in sorted(old.keys() & new.keys())
        if old[k]["residual"] != new[k]["residual"]
    ]


def margins(report: dict) -> list[tuple[str, float]]:
    """(record, residual / tolerance) above MARGIN, largest first."""
    ratios = [
        (_label(_key(r)), r["residual"] / r["tolerance"])
        for r in report["records"]
        if r["tolerance"] > 0 and r["residual"] / r["tolerance"] > MARGIN
    ]
    return sorted(ratios, key=lambda item: -item[1])


def load(path) -> dict:
    return json.loads(Path(path).read_text())


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print("usage: golden_check.py report.json [golden.json]", file=sys.stderr)
        return 2
    report = load(args[0])
    golden = load(args[1] if len(args) == 2 else GOLDEN)
    problems = compare(golden, report)
    for line in problems:
        print(f"DIFF {line}")
    for label, old, new in moved(golden, report):
        print(f"moved {label}: {old:.3e} -> {new:.3e}")
    for label, ratio in margins(report):
        print(f"margin {label}: residual/tolerance {ratio:.2f}")
    print(f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
