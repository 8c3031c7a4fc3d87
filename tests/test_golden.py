"""The default `verify` report against the committed golden report."""

import copy

import pytest

import golden_check as gc


@pytest.fixture(scope="module")
def golden():
    return gc.load(gc.GOLDEN)


def test_default_report_matches_golden(golden, default_verify):
    proc, _, out = default_verify
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert gc.compare(golden, gc.load(out)) == []


def _mutated(golden, index, **fields):
    report = copy.deepcopy(golden)
    report["records"][index].update(fields)
    return report


def _index(golden, name):
    return next(i for i, r in enumerate(golden["records"]) if r["name"] == name)


def test_the_write_recipe_reproduces_the_golden_file_from_itself(tmp_path, monkeypatch):
    committed = gc.GOLDEN
    monkeypatch.setattr(gc, "GOLDEN", tmp_path / "verify_default.json")
    assert gc.main(["--write", str(committed)]) == 0
    assert gc.GOLDEN.read_bytes() == committed.read_bytes()


def test_checker_accepts_the_golden_itself(golden):
    assert gc.compare(golden, golden) == []


def test_checker_flags_a_missing_and_an_added_record(golden):
    report = copy.deepcopy(golden)
    dropped = report["records"].pop(0)
    assert gc.compare(golden, report) == [f"missing {gc._label(gc._key(dropped))}"]
    report["records"].append(dict(dropped, seed=999))
    assert len(gc.compare(golden, report)) == 2


@pytest.mark.parametrize("field", ["passed", "tolerance", "note", "kmax"])
def test_checker_flags_a_changed_record_field(golden, field):
    rec = golden["records"][5]
    changed = {"passed": not rec["passed"], "tolerance": rec["tolerance"] * 2,
               "note": rec["note"] + "x", "kmax": rec["kmax"] + 1}[field]
    problems = gc.compare(golden, _mutated(golden, 5, **{field: changed}))
    assert len(problems) == 1 and f": {field} " in problems[0]


def test_checker_flags_a_summary_or_config_change(golden):
    report = copy.deepcopy(golden)
    report["summary"]["passed"] -= 1
    report["config"]["kmax"] += 1
    assert len(gc.compare(golden, report)) == 2


def test_checker_residual_moves(golden):
    i = _index(golden, "linearized_s_fd")  # residual far above the floor
    r = golden["records"][i]["residual"]
    assert r > 1e-10
    assert gc.compare(golden, _mutated(golden, i, residual=9.9 * r)) == []
    assert gc.compare(golden, _mutated(golden, i, residual=r / 9.9)) == []
    assert len(gc.compare(golden, _mutated(golden, i, residual=10.1 * r))) == 1
    assert len(gc.compare(golden, _mutated(golden, i, residual=r / 10.1))) == 1
    assert len(gc.compare(golden, _mutated(golden, i, residual=0.0))) == 1


def test_checker_ignores_moves_below_the_floor_and_wall_times(golden):
    report = copy.deepcopy(golden)
    report["generated_at"] = "now"
    report["summary"]["wall_time"] = 1.0
    for rec in report["records"]:
        rec["wall_time"] = 1.0
        if rec["residual"] < 1e-14:
            rec["residual"] = 9e-13
    assert gc.compare(golden, report) == []
    low = next(i for i, r in enumerate(golden["records"]) if r["residual"] < 1e-14)
    assert len(gc.compare(golden, _mutated(golden, low, residual=1.1e-12))) == 1


def test_margins_lists_records_near_their_tolerance(golden):
    assert gc.margins(golden) == []  # no default record above half its tolerance
    i = _index(golden, "integrate_mode_cancellation")
    tol = golden["records"][i]["tolerance"]
    near = _mutated(golden, i, residual=0.6 * tol)
    assert gc._label(gc._key(golden["records"][i])) in [label for label, _ in gc.margins(near)]
