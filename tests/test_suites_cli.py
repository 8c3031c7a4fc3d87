import dataclasses
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torusgeom import bundles, suites
from torusgeom.cli import _load_config, main
from torusgeom.suites import (
    CHECKS,
    SUITE_NAMES,
    CheckResult,
    SuiteConfig,
    SuiteReport,
    convergence_table,
    run_suites,
)

SMALL = {
    "grid_sizes": [32],
    "seeds": [0, 1, 2],
    "kmax": 4,
    "suites": ["kobayashi", "calculus"],
}


def names_of(suite):
    return {c.name for c in CHECKS if c.suite == suite}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def strip_volatile(body: dict) -> dict:
    body = json.loads(json.dumps(body))
    body.pop("generated_at", None)
    body["summary"].pop("wall_time", None)
    for rec in body["records"]:
        rec.pop("wall_time", None)
    return body


# ------------------------------------------------------------ config layer


def test_config_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        SuiteConfig(suites=("nope",))


def test_config_rejects_bad_grid():
    with pytest.raises(ValueError, match="grid_sizes"):
        SuiteConfig(grid_sizes=(7,))


def test_config_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError, match="positive"):
        SuiteConfig(tolerances={"momentum": 0.0})


def test_config_rejects_boolean_tolerance():
    with pytest.raises(ValueError, match="must be a number"):
        SuiteConfig.from_dict({"tolerances": {"momentum": True}})


def test_config_rejects_infinite_tolerance():
    data = json.loads('{"tolerances": {"kobayashi": Infinity}}')
    with pytest.raises(ValueError, match="finite"):
        SuiteConfig.from_dict(data)


def test_config_rejects_duplicate_seeds():
    with pytest.raises(ValueError, match="distinct"):
        SuiteConfig.from_dict({"seeds": [3, 4, 3]})


def test_config_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown config field"):
        SuiteConfig.from_dict({"grids": [64]})


def test_config_rejects_large_kmax():
    with pytest.raises(ValueError, match="kmax"):
        SuiteConfig(grid_sizes=(32,), kmax=8)


def test_config_rejects_duplicate_grid_sizes():
    with pytest.raises(ValueError, match="distinct"):
        SuiteConfig.from_dict({"grid_sizes": [32, 64, 32]})


def test_config_rejects_a_tolerance_key_no_check_reads():
    # every symplectic check has its own tolerance, so this override would
    # pass every record while looking like a gate
    with pytest.raises(ValueError, match="symplectic"):
        SuiteConfig(tolerances={"symplectic": 1e-300})
    with pytest.raises(ValueError, match="no suite tolerance"):
        SuiteConfig(tolerances={"lemma3": 1e-8})
    readers = {c.suite for c in CHECKS if c.tolerance is None}
    assert readers == set(SUITE_NAMES) - {"symplectic"}
    for suite in readers:
        assert SuiteConfig(tolerances={suite: 0.5}).tol(suite) == 0.5


@pytest.mark.parametrize(
    "data, message",
    [
        ({"seeds": []}, "seeds must be a nonempty list"),
        ([{"seeds": [1]}], "config root must be a JSON object"),
        ({"tolerances": [1]}, "tolerances must be an object of suite -> number"),
    ],
    ids=["no-seeds", "list-root", "tolerance-list"],
)
def test_config_from_dict_rejects_malformed_json(data, message):
    with pytest.raises(ValueError, match=message):
        SuiteConfig.from_dict(data)


def test_config_echo_reads_back_to_the_same_config():
    config = SuiteConfig.from_dict({**SMALL, "tolerances": {"momentum": 1e-7}})
    echo = config.echo()
    assert list(echo) == ["grid_sizes", "seeds", "kmax", "suites", "tolerances"]
    assert echo == json.loads(json.dumps(echo))
    assert SuiteConfig.from_dict(echo) == config


# ------------------------------------------------------------- suite runs


def test_kobayashi_suite_fast_and_all_pass():
    config = SuiteConfig(grid_sizes=(32,), seeds=tuple(range(5)), suites=("kobayashi",))
    t0 = time.perf_counter()
    report = run_suites(config)
    elapsed = time.perf_counter() - t0
    assert report.overall_pass
    assert elapsed < 1.0
    assert {r.name for r in report.records} == names_of("kobayashi")


def test_report_records_sorted_and_named():
    config = SuiteConfig(grid_sizes=(32,), seeds=(0, 1, 2), suites=("calculus", "kobayashi"))
    body = run_suites(config).to_dict()
    keys = [(r["suite"], r["name"], r["seed"], r["n"]) for r in body["records"]]
    assert keys == sorted(keys)
    for rec in body["records"]:
        assert rec["name"] in names_of(rec["suite"])
    assert body["schema"] == 1


def test_runner_turns_exceptions_into_failed_records(monkeypatch):
    def exploding(point):
        raise RuntimeError("synthetic blow-up")

    table = [dataclasses.replace(c, run=exploding) if c.name == "associativity" else c
             for c in CHECKS]
    monkeypatch.setattr(suites, "CHECKS", table)
    report = run_suites(SuiteConfig(grid_sizes=(32,), seeds=(0, 1), suites=("kobayashi",)))
    failed = [r for r in report.records if not r.passed]
    assert [(r.name, r.seed) for r in failed] == [("associativity", 0), ("associativity", 1)]
    for r in failed:
        assert r.note == "RuntimeError: synthetic blow-up"
        assert r.tolerance == 1e-12 and math.isnan(r.residual)  # the suite tolerance
    assert len(report.records) == 10


def test_a_raising_check_fails_once_per_point_and_hides_nothing():
    # at N = 32 the fundamental vector's trace exceeds its default bound, so
    # momentum_residual raises at every seed; the kappa checks still run
    config = SuiteConfig(grid_sizes=(32,), seeds=tuple(range(10)), suites=("momentum",))
    records = run_suites(config).records
    failed = [r for r in records if not r.passed]
    assert sorted(r.seed for r in failed) == list(range(10))
    assert all(r.name == "momentum_residual" for r in failed)
    assert all(r.note.startswith("ValueError: -L_X g has g-trace") for r in failed)
    passed = [r for r in records if r.passed]
    assert len(passed) == 7 and all(r.name.startswith("kappa_") for r in passed)


def test_fundamental_trace_reports_its_residual_at_every_n():
    # at N = 32 the trace of -L_X g is 3e-7 to 5e-6, above fundamental_vector's
    # 1e-9 precondition: fundamental_trace reports that trace, while
    # lemma1_equality, which needs a tangent vector, keeps the precondition
    config = SuiteConfig(grid_sizes=(32,), seeds=tuple(range(10)), suites=("lemma1",))
    records = run_suites(config).records
    trace = [r for r in records if r.name == "fundamental_trace"]
    assert sorted(r.seed for r in trace) == list(range(10))
    assert all(r.note == "" and 1e-7 <= r.residual <= 1e-5 and not r.passed for r in trace)
    equality = [r for r in records if r.name == "lemma1_equality"]
    assert all(r.note.startswith("ValueError: -L_X g has g-trace") for r in equality)


def test_declared_sweeps_equal_the_golden_records():
    # the table lists every record of the default run before any check runs
    config = SuiteConfig()
    declared = [
        (suite, c.name, seed, n)
        for suite in config.suites
        for (seed, n), checks in suites.plan(config, suite).items()
        for c in checks
    ]
    golden = json.loads((Path(__file__).with_name("golden") / "verify_default.json").read_text())
    produced = {(r["suite"], r["name"], r["seed"], r["n"]) for r in golden["records"]}
    assert len(declared) == len(set(declared)) == 381
    assert set(declared) == produced
    assert len({c.name for c in CHECKS}) == len(CHECKS)  # --record finds a check by name


def test_nan_residual_fails_record():
    from torusgeom.suites import _record

    rec = _record("momentum", "x", 0, 32, 4, float("nan"), 1e-8, time.perf_counter())
    assert not rec.passed


def test_momentum_suite_fifty_seeds_within_budget():
    config = SuiteConfig(grid_sizes=(64,), seeds=tuple(range(50)), suites=("momentum",))
    t0 = time.perf_counter()
    report = run_suites(config)
    elapsed = time.perf_counter() - t0
    assert report.overall_pass
    assert elapsed <= 60.0
    residual_records = [r for r in report.records if r.name == "momentum_residual"]
    assert len(residual_records) == 50
    assert sum(1 for r in residual_records if r.note == "harmonic") >= 10


def test_single_record_rerun():
    report = run_suites(
        SuiteConfig(grid_sizes=(32, 64), seeds=tuple(range(50))),
        record_filter=("momentum_residual", 7, 64),
    )
    assert len(report.records) == 1
    rec = report.records[0]
    assert (rec.name, rec.seed, rec.n) == ("momentum_residual", 7, 64)
    assert rec.passed


def test_every_record_reruns_alone_to_the_full_run():
    config = SuiteConfig.from_dict(
        {"grid_sizes": [64], "seeds": list(range(10)), "suites": ["lemma1", "momentum"]}
    )
    full = run_suites(config).records
    assert len(full) == 57
    for rec in full:
        alone = run_suites(config, record_filter=(rec.name, rec.seed, rec.n)).records
        assert [(r.residual, r.note, r.tolerance) for r in alone] == [
            (rec.residual, rec.note, rec.tolerance)
        ], f"{rec.name}:{rec.seed}:{rec.n}"


def test_single_record_unknown_name():
    with pytest.raises(ValueError, match="unknown record"):
        run_suites(SuiteConfig(), record_filter=("no_such_check", 0, 64))


def test_convergence_table_rows():
    config = SuiteConfig(grid_sizes=(32, 48, 64), seeds=(0, 1, 2), suites=("convergence",))
    report = run_suites(config)
    csv_text, warning = convergence_table(report)
    assert warning is None
    lines = csv_text.strip().splitlines()
    assert lines[0] == "check,N,residual,ratio,flag"
    dalpha_rows = [l for l in lines if l.startswith("dalpha_residual")]
    assert len(dalpha_rows) == 3
    last = dalpha_rows[-1].split(",")
    assert float(last[3]) <= 1e-2 and last[4] == "spectral"


def test_convergence_resolved_grids_pass_at_roundoff_floor():
    # N=64 already resolves kmax 4; the N=64 -> N=128 ratio of two residuals
    # at or near roundoff is noise, so it is recorded as 0 with the floor named
    config = SuiteConfig(grid_sizes=(64, 128), seeds=(0, 1, 2), suites=("convergence",))
    report = run_suites(config)
    assert len(report.records) == 15 and all(r.passed for r in report.records)
    ratios = [r for r in report.records if r.name == "dalpha_ratio"]
    assert [r.residual for r in ratios] == [0.0] * 3
    assert all("floor" in r.note for r in ratios)
    # the CSV flags the same rows with the same floor
    csv_text, _ = convergence_table(report)
    assert "dalpha_residual,128," in csv_text
    assert csv_text.split("dalpha_residual,128,")[1].split("\n")[0].endswith(",floor")


# 5e-10 rises above every N=64 residual yet stays below 1e-9
@pytest.mark.parametrize("level", [1e-6, 5e-10])
def test_convergence_unresolved_fine_grid_still_fails(monkeypatch, level):
    real = bundles.dalpha_defect

    def unresolved_at_128(g, h):
        out = real(g, h)
        return out + level * h.h.max_abs() if g.grid.n == 128 else out

    monkeypatch.setattr(bundles, "dalpha_defect", unresolved_at_128)
    config = SuiteConfig(grid_sizes=(64, 128), seeds=(0, 1, 2), suites=("convergence",))
    ratios = [r for r in run_suites(config).records if r.name == "dalpha_ratio"]
    assert len(ratios) == 3 and not any(r.passed for r in ratios)
    assert all(r.residual > 1.0 for r in ratios)


def test_convergence_table_empty_warning():
    report = SuiteReport(SuiteConfig(), [], 0.0, [])
    csv_text, warning = convergence_table(report)
    assert warning is not None
    assert csv_text.strip() == "check,N,residual,ratio,flag"


def test_convergence_table_flags_a_slow_decay_and_a_plateau():
    # ratios 0.5 (above the 1e-2 ratio tolerance, below 1) and 1.2, far above the floor
    config = SuiteConfig(grid_sizes=(32, 48, 64), suites=("convergence",))
    records = [
        CheckResult("convergence", "lemma1_residual", seed, n, 4, res, 1.0, True, 0.0)
        for seed in (0, 1)
        for n, res in ((32, 1e-3), (48, 5e-4), (64, 6e-4))
    ]
    csv_text, warning = convergence_table(SuiteReport(config, records, 0.0, []))
    assert warning is None
    assert csv_text.splitlines()[1:] == [
        "lemma1_residual,32,1.000000e-03,,first",
        "lemma1_residual,48,5.000000e-04,5.000000e-01,decaying",
        "lemma1_residual,64,6.000000e-04,1.200000e+00,flat",
    ]


# ------------------------------------------------------------------- CLI


def test_cli_pass_run(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "report.json"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert body["summary"]["overall_pass"] is True
    assert (tmp_path / "report_convergence.csv").exists()


def test_cli_exit_1_on_check_failure(tmp_path):
    cfg = write_config(tmp_path, {**SMALL, "tolerances": {"calculus": 1e-300}})
    out = tmp_path / "report.json"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    body = json.loads(out.read_text())
    assert body["summary"]["failed"] > 0


def test_cli_exit_2_on_bad_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    assert main(["--config", str(bad), "--out", str(tmp_path / "r.json")]) == 2


def test_cli_exit_2_on_unknown_suite(tmp_path):
    assert main(["--suites", "nonexistent", "--out", str(tmp_path / "r.json")]) == 2


def test_suites_flag_keeps_every_other_config_field(tmp_path):
    data = {"grid_sizes": [32, 64], "seeds": [4, 5], "kmax": 3, "tolerances": {"momentum": 1e-7}}
    config = _load_config(write_config(tmp_path, data), " kobayashi, momentum ")
    base = SuiteConfig.from_dict(data)
    assert config.suites == ("kobayashi", "momentum")
    for f in dataclasses.fields(SuiteConfig):
        if f.name != "suites":
            assert getattr(config, f.name) == getattr(base, f.name), f.name


def test_cli_exit_2_on_missing_config(tmp_path):
    assert main(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--suites", ","], "--suites was given but named no suites"),
        (["--record", "a:1"], "--record wants NAME:SEED:N, got 'a:1'"),
    ],
    ids=["empty-suites", "short-record"],
)
def test_cli_usage_errors_exit_2_with_their_message(tmp_path, capsys, args, message):
    out = tmp_path / "r.json"
    assert main([*args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_record_flag(tmp_path):
    out = tmp_path / "single.json"
    code = main(["--record", "momentum_residual:3:64", "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert [r["name"] for r in body["records"]] == ["momentum_residual"]
    assert body["records"][0]["seed"] == 3


def test_cli_record_flag_bad_spec(tmp_path):
    assert main(["--record", "momentum_residual:x:64", "--out", str(tmp_path / "r.json")]) == 2


def test_cli_deterministic_report_body(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    b1 = strip_volatile(json.loads(out1.read_text()))
    b2 = strip_volatile(json.loads(out2.read_text()))
    assert json.dumps(b1, sort_keys=True) == json.dumps(b2, sort_keys=True)


def test_cli_env_var_overrides_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "elsewhere"
    monkeypatch.setenv("TORUSGEOM_REPORT_DIR", str(target))
    cfg = write_config(tmp_path, SMALL)
    assert main(["--config", cfg, "--out", "report.json"]) == 0
    assert (target / "report.json").exists()


def test_cli_entry_point_subprocess(tmp_path):
    cfg = write_config(tmp_path, {**SMALL, "suites": ["kobayashi"]})
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "torusgeom", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_record_outside_sweep_is_usage_error(tmp_path):
    # the momentum sweep is defined at desk scale; an off-sweep N is exit 2
    assert main(["--record", "momentum_residual:7:8", "--out", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("spec", ["partial_commute:40:64", "closedness_order:7:64"])
def test_cli_record_off_sweep_seed_is_usage_error(tmp_path, spec):
    # partial_commute sweeps the first 3 seeds and closedness_order the first;
    # a record the full run never has is not produced
    out = tmp_path / "r.json"
    assert main(["--record", spec, "--out", str(out)]) == 2
    assert not out.exists()
