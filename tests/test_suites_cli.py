import dataclasses
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgeom import bundles, diffeo, sampling, suites
from torusgeom.cli import _load_config, main
from torusgeom.fields import Grid, ScalarField
from torusgeom.suites import (
    CHECKS,
    CheckResult,
    SuiteConfig,
    SuiteReport,
    convergence_table,
    run_record,
    run_suites,
)

import golden_check

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


# ------------------------------------------------------------ config layer


def test_config_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        SuiteConfig(suites=("nope",))


def test_config_rejects_bad_grid():
    with pytest.raises(ValueError, match="grid_sizes"):
        SuiteConfig(grid_sizes=(7,))


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


def test_every_check_declares_a_fixed_tolerance_that_its_records_carry():
    golden = json.loads((Path(__file__).with_name("golden") / "verify_default.json").read_text())
    declared = {c.name: c.tolerance for c in CHECKS}
    for c in CHECKS:
        assert type(c.tolerance) is float and math.isfinite(c.tolerance) and c.tolerance > 0, c.name
    assert {r["name"] for r in golden["records"]} == set(declared)
    for rec in golden["records"]:
        assert rec["tolerance"] == declared[rec["name"]], rec["name"]


# a config that cannot run (a negative seed), runs nothing (no suites) or
# runs a suite twice under the same record keys, or that names a tolerance
CANNOT_FAIL = [
    ({"seeds": [-1, 0]}, "seeds must be non-negative, got [-1, 0]"),
    ({"grid_sizes": [7]}, "grid_sizes must be even and >= 8, got [7]"),
    ({"suites": []}, "suites must name at least one suite"),
    ({"suites": ["momentum", "momentum"]}, "suites must be distinct, got ['momentum', 'momentum']"),
    ({"tolerances": {"momentum": 1e-7}}, "unknown config field 'tolerances'"),
]
CANNOT_FAIL_IDS = ["negative-seed", "odd-grid", "empty-suites", "duplicate-suites", "tolerances"]


@pytest.mark.parametrize("data, message", CANNOT_FAIL, ids=CANNOT_FAIL_IDS)
def test_cli_config_that_cannot_fail_is_a_config_error(tmp_path, capsys, data, message):
    cfg = write_config(tmp_path, {"grid_sizes": [32], "seeds": [0], **data})
    out = tmp_path / "r.json"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


# a field of the wrong JSON type is named, not coerced and not a TypeError
MALFORMED_FIELDS = [
    ({"seeds": 5}, "seeds must be a list of integers"),
    ({"grid_sizes": None}, "grid_sizes must be a list of integers"),
    ({"suites": 3}, "suites must be a list of strings"),
    ({"kmax": [1]}, "kmax must be an integer"),
    ({"kmax": True}, "kmax must be an integer"),
    ({"seeds": [1.5, 2.7]}, "seeds must be a list of integers"),
    ({"seeds": [0, False]}, "seeds must be a list of integers"),
    ({"grid_sizes": [64.9]}, "grid_sizes must be a list of integers"),
    ({"suites": "momentum"}, "suites must be a list of strings"),
]
MALFORMED_IDS = ["seeds-int", "grid-null", "suites-int", "kmax-list", "kmax-bool",
                 "seeds-float", "seeds-bool", "grid-float", "suites-string"]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"seeds": []}, "seeds must be a nonempty list"),
        ([{"seeds": [1]}], "config root must be a JSON object"),
        *MALFORMED_FIELDS,
    ],
    ids=["no-seeds", "list-root", *MALFORMED_IDS],
)
def test_config_from_dict_rejects_malformed_json(data, message):
    with pytest.raises(ValueError, match=message):
        SuiteConfig.from_dict(data)


@pytest.mark.parametrize("data, message", MALFORMED_FIELDS, ids=MALFORMED_IDS)
def test_cli_malformed_config_field_is_a_config_error(tmp_path, capsys, data, message):
    cfg = write_config(tmp_path, data)
    assert main(["--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "data, message",
    [
        *MALFORMED_FIELDS,
        ({"kmax": 4.5}, "kmax must be an integer"),
        ({"grid_sizes": (32.0,)}, "grid_sizes must be a list of integers"),
        ({"seeds": (0.5,)}, "seeds must be a list of integers"),
    ],
    ids=[*MALFORMED_IDS, "kmax-float", "grid-float-tuple", "seeds-float-tuple"],
)
def test_config_built_in_python_is_checked_like_json(data, message):
    with pytest.raises(ValueError, match=message):
        SuiteConfig(**data)


def test_config_stores_a_list_as_a_tuple_and_hashes():
    config = SuiteConfig(seeds=[1, 2])
    assert config.seeds == (1, 2)
    assert hash(config) == hash(SuiteConfig(seeds=(1, 2)))


def test_config_echo_reads_back_to_the_same_config():
    config = SuiteConfig.from_dict(SMALL)
    echo = config.echo()
    assert list(echo) == ["grid_sizes", "seeds", "kmax", "suites"]
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
    assert body["schema"] == 2
    assert list(body) == ["schema", "version", "config", "records", "summary"]


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
        assert r.tolerance == 1e-12 and math.isnan(r.residual)  # the tolerance its @check states
    assert len(report.records) == 10


def test_a_raising_check_fails_once_per_point_and_hides_nothing(monkeypatch):
    # omega_invariance raises at every seed, in the pushforward it alone calls;
    # the flow's own checks, which share the point's cached map, still run
    def failing(*args):
        raise ValueError("synthetic pushforward failure")

    monkeypatch.setattr(diffeo, "pushforward_tangent", failing)
    config = SuiteConfig(grid_sizes=(32,), seeds=(0, 1, 2), suites=("flow-invariance",))
    records = run_suites(config).records
    raised = [r for r in records if r.note]
    assert sorted((r.name, r.seed) for r in raised) == [("omega_invariance", s) for s in range(3)]
    assert all(r.note == "ValueError: synthetic pushforward failure" for r in raised)
    assert all(not r.passed and math.isnan(r.residual) for r in raised)
    reported = [r for r in records if not r.note]
    assert len(reported) == 10 and all(math.isfinite(r.residual) for r in reported)
    assert [r.seed for r in reported if r.name == "translation_exact" and r.passed] == [0]


def test_fundamental_trace_reports_its_residual_at_every_n():
    # at N = 32 the trace of -L_X g is 3e-7 to 5e-6, above fundamental_vector's
    # 1e-9 precondition: fundamental_trace reports that trace, and
    # lemma1_equality reads -L_X g past the precondition
    config = SuiteConfig(grid_sizes=(32,), seeds=tuple(range(10)), suites=("lemma1",))
    records = run_suites(config).records
    trace = [r for r in records if r.name == "fundamental_trace"]
    assert sorted(r.seed for r in trace) == list(range(10))
    assert all(r.note == "" and 1e-7 <= r.residual <= 1e-5 and not r.passed for r in trace)
    equality = [r for r in records if r.name == "lemma1_equality"]
    assert len(equality) == 10 and all(r.note == "" and r.passed for r in equality)


def test_identities_report_past_the_trace_gate_at_n32(tmp_path):
    # fundamental_vector's 1e-9 trace gate fires at every seed at N = 32, yet
    # the Lemma 1 and momentum identities read past it hold to 3e-12
    cfg = write_config(tmp_path, {"grid_sizes": [32], "seeds": list(range(10))})
    out = tmp_path / "report.json"
    assert main(["--config", cfg, "--out", str(out), "--suites", "lemma1,momentum"]) == 1
    records = json.loads(out.read_text())["records"]
    for name in ("lemma1_equality", "momentum_residual"):
        recs = [r for r in records if r["name"] == name]
        assert sorted(r["seed"] for r in recs) == list(range(10)), name
        assert all(r["passed"] and r["residual"] <= 1e-11 for r in recs), name
        assert all(r["note"] in ("", "harmonic") for r in recs), name
    failed = {r["name"] for r in records if not r["passed"]}
    assert failed == {"fundamental_trace"}
    with pytest.raises(ValueError, match="-L_X g has g-trace"):
        point = suites.SUITES["momentum"](SuiteConfig(grid_sizes=(32,)), 0, 32)
        bundles.momentum_residual(point.g, point.X, point.h)


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
    assert len(declared) == len(set(declared)) == 384
    assert set(declared) == produced
    assert len({c.name for c in CHECKS}) == len(CHECKS)  # --record finds a check by name


def test_nan_residual_fails_record():
    from torusgeom.suites import Check, _run

    check = Check("momentum", "x", 1e-8, suites.desk(1), lambda point: float("nan"))
    rec = _run(check, suites.SUITES["momentum"](SuiteConfig(), 0, 32))
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
    report = run_record(SuiteConfig(grid_sizes=(32, 64), seeds=tuple(range(50))), "momentum_residual", 7, 64)
    assert len(report.records) == 1
    rec = report.records[0]
    assert (rec.name, rec.seed, rec.n) == ("momentum_residual", 7, 64)
    assert rec.passed


def test_every_record_reruns_alone_to_the_full_run():
    # a point's metric caches what its checks share (h^ij, nabla_j h^kj, its
    # divergence, L_X g); a record run alone builds them itself
    config = SuiteConfig.from_dict(
        {"grid_sizes": [64], "seeds": list(range(10)), "suites": ["lemma1", "lemma2", "momentum"]}
    )
    full = run_suites(config).records
    assert len(full) == 87
    for rec in full:
        alone = run_record(config, rec.name, rec.seed, rec.n).records
        assert [(r.residual, r.note, r.tolerance) for r in alone] == [
            (rec.residual, rec.note, rec.tolerance)
        ], f"{rec.name}:{rec.seed}:{rec.n}"


def test_point_density_is_drawn_at_the_config_kmax():
    config = SuiteConfig.from_dict({"grid_sizes": [16], "seeds": [0, 1, 2], "kmax": 3})
    vol = suites.SUITES["riemannian"](config, 1, 16).vol
    want = sampling.random_volume_form(Grid(16), 1 + 300, kmax=3)
    assert np.array_equal(vol.density.values, want.density.values)
    records = run_suites(config).records
    assert len(records) == 130
    assert [f"{r.name}:{r.seed}" for r in records if "too large" in r.note] == []


def test_flow_residuals_are_reported_past_the_volume_gate():
    # seed 1's flow loses 1.9e-4 of its volume at N = 16, over diffeo.flow's
    # limit: every flow-invariance check reports a residual on that map, and
    # diffeo.flow keeps the gate
    config = SuiteConfig.from_dict(
        {"grid_sizes": [16], "seeds": [1], "kmax": 3, "suites": ["flow-invariance"]}
    )
    recs = {r.name: r for r in run_suites(config).records}
    volume = recs["flow_volume"]
    assert diffeo.FLOW_VOLUME_LIMIT < volume.residual < 3e-4
    assert not volume.passed and volume.note == ""
    for name in ("flow_roundtrip", "pushforward_compatibility", "omega_invariance"):
        assert math.isfinite(recs[name].residual) and recs[name].note == ""
    assert not recs["omega_invariance"].passed
    with pytest.raises(ValueError, match="flow volume defect"):
        diffeo.flow(suites.SUITES["flow-invariance"](config, 1, 16).flow_field, 0.1, 5e-3)


def test_single_record_unknown_name():
    with pytest.raises(ValueError, match="unknown record"):
        run_record(SuiteConfig(), "no_such_check", 0, 64)


@st.composite
def suite_configs(draw):
    """Valid configs, their seed lists in any order and not starting at 0."""
    grid_sizes = draw(st.lists(st.sampled_from([8, 16, 24, 32, 48, 64]), min_size=1, max_size=4, unique=True))
    return SuiteConfig(
        grid_sizes=grid_sizes,
        seeds=draw(st.lists(st.integers(0, 200), min_size=1, max_size=60, unique=True)),
        kmax=draw(st.integers(0, min(grid_sizes) // 4 - 1)),
        suites=draw(st.lists(st.sampled_from(suites.SUITE_NAMES), min_size=1, unique=True)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=suite_configs(), data=st.data())
def test_plan_is_the_one_rule_for_which_records_a_config_runs(config, data):
    # plan's points are configured (seed, N); run_record accepts a record
    # exactly when its suite is configured and plan holds its check there
    for suite in config.suites:
        for seed, n in suites.plan(config, suite):
            assert seed in config.seeds and n in config.grid_sizes, (suite, seed, n)
    c = data.draw(st.sampled_from(CHECKS))
    seed = data.draw(st.sampled_from([*config.seeds, max(config.seeds) + 1]))
    n = data.draw(st.sampled_from([*config.grid_sizes, 2 * config.n_desk]))
    held = c.suite in config.suites and c in suites.plan(config, c.suite).get((seed, n), [])
    with mock.patch.object(suites, "_run", lambda check, point: (check.name, point.seed, point.n)):
        if held:
            assert run_record(config, c.name, seed, n).records == [(c.name, seed, n)]
        else:
            with pytest.raises(ValueError, match="outside the|does not run"):
                run_record(config, c.name, seed, n)


SEEDS_5_TO_7 = {"seeds": [5, 6, 7], "grid_sizes": [64], "suites": ["calculus"]}


def test_checks_whose_inputs_take_no_seed_run_at_the_first_configured_seed():
    records = run_suites(SuiteConfig.from_dict(SEEDS_5_TO_7)).records
    seedless = {"partial_trig_exact", "integrate_mode_cancellation"}
    assert sorted((r.name, r.seed) for r in records if r.name in seedless) == [
        ("integrate_mode_cancellation", 5), ("partial_trig_exact", 5)]
    assert {r.seed for r in records} == {5, 6, 7}


@pytest.mark.parametrize(
    "data, args, message",
    [
        (SEEDS_5_TO_7, ["--record", "no_such_check:5:64"], "unknown record name 'no_such_check'"),
        ({}, ["--suites", "calculus", "--record", "momentum_residual:7:64"],
         "record momentum_residual is in suite momentum, which the config does not run"),
        (SEEDS_5_TO_7, ["--record", "partial_trig_exact:0:64"], "outside the calculus/partial_trig_exact sweep"),
        (SEEDS_5_TO_7, ["--record", "partial_trig_exact:5:32"], "outside the calculus/partial_trig_exact sweep"),
    ],
    ids=["unknown-name", "suite-not-configured", "seed-outside-plan", "n-outside-plan"],
)
def test_cli_record_the_full_run_does_not_hold_is_a_usage_error(tmp_path, capsys, data, args, message):
    out = tmp_path / "r.json"
    assert main(["--config", write_config(tmp_path, data), *args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_record_at_the_first_configured_seed_is_the_full_runs_record(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--config", write_config(tmp_path, SEEDS_5_TO_7), "--record", "partial_trig_exact:5:64",
                 "--out", str(out)]) == 0
    full = run_suites(SuiteConfig.from_dict(SEEDS_5_TO_7)).to_dict()["records"]
    want = [r for r in full if r["name"] == "partial_trig_exact"]
    assert golden_check.strip(json.loads(out.read_text()))["records"] == golden_check.strip({
        "summary": {}, "records": want})["records"]


def test_one_record_of_every_check_reruns_alone_to_the_full_run():
    # at the coarse sizes some records fail or raise; each still reruns to
    # the same residual (NaN for NaN), note and tolerance
    config = SuiteConfig.from_dict({"grid_sizes": [32, 48], "seeds": [3, 4, 5]})
    full = run_suites(config).records
    first = {}
    for rec in full:
        first.setdefault(rec.name, rec)
    assert len(full) == 139 and len(first) == len(CHECKS)
    for rec in first.values():
        [alone] = run_record(config, rec.name, rec.seed, rec.n).records
        same_residual = alone.residual == rec.residual or math.isnan(alone.residual) and math.isnan(rec.residual)
        assert same_residual and (alone.note, alone.tolerance) == (rec.note, rec.tolerance), \
            f"{rec.name}:{rec.seed}:{rec.n}"


def test_convergence_table_rows():
    config = SuiteConfig(grid_sizes=(32, 48, 64), seeds=(0, 1, 2), suites=("convergence",))
    report = run_suites(config)
    lines = convergence_table(report).strip().splitlines()
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
    csv_text = convergence_table(report)
    assert "dalpha_residual,128," in csv_text
    assert csv_text.split("dalpha_residual,128,")[1].split("\n")[0].endswith(",floor")


# 5e-10 rises above every N=64 residual yet stays below 1e-9
@pytest.mark.parametrize("level", [1e-6, 5e-10])
def test_convergence_unresolved_fine_grid_still_fails(monkeypatch, level):
    real = bundles.dalpha_defect

    def unresolved_at_128(g, h):
        out = real(g, h)
        return ScalarField(g.grid, out.values + level * h.h.max_abs()) if g.grid.n == 128 else out

    monkeypatch.setattr(bundles, "dalpha_defect", unresolved_at_128)
    config = SuiteConfig(grid_sizes=(64, 128), seeds=(0, 1, 2), suites=("convergence",))
    ratios = [r for r in run_suites(config).records if r.name == "dalpha_ratio"]
    assert len(ratios) == 3 and not any(r.passed for r in ratios)
    assert all(r.residual > 1.0 for r in ratios)


def test_cli_writes_the_convergence_csv_only_with_convergence_records(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid_sizes": [32, 48], "seeds": [0, 1, 2], "suites": ["kobayashi"]})
    assert main(["--config", cfg, "--out", str(tmp_path / "plain.json")]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "plain.json"]
    assert main(["--config", cfg, "--suites", "convergence", "--out", str(tmp_path / "conv.json")]) == 0
    csv = (tmp_path / "conv_convergence.csv").read_text().splitlines()
    assert csv[0] == "check,N,residual,ratio,flag" and len(csv) == 5


def test_convergence_table_flags_a_slow_decay_and_a_plateau():
    # ratios 0.5 (above the 1e-2 ratio tolerance, below 1) and 1.2, far above the floor
    config = SuiteConfig(grid_sizes=(32, 48, 64), suites=("convergence",))
    records = [
        CheckResult("convergence", "lemma1_residual", seed, n, 4, res, 1.0, True, 0.0)
        for seed in (0, 1)
        for n, res in ((32, 1e-3), (48, 5e-4), (64, 6e-4))
    ]
    assert convergence_table(SuiteReport(config, records, 0.0)).splitlines()[1:] == [
        "lemma1_residual,32,1.000000e-03,,first",
        "lemma1_residual,48,5.000000e-04,5.000000e-01,decaying",
        "lemma1_residual,64,6.000000e-04,1.200000e+00,flat",
    ]


# ------------------------------------------------------------------- CLI


def test_cli_pass_run(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "not" / "yet" / "report.json"  # --out creates its directory
    assert main(["--config", cfg, "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert body["summary"]["overall_pass"] is True
    assert not (out.parent / "report_convergence.csv").exists()  # no convergence records


def test_cli_exit_1_on_check_failure(tmp_path):
    # N = 16 truncates the kmax 3 metrics: 5 of the 10 riemannian records fail
    cfg = write_config(tmp_path, {"grid_sizes": [16], "seeds": [0], "kmax": 3, "suites": ["riemannian"]})
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
    data = {"grid_sizes": [32, 64], "seeds": [4, 5], "kmax": 3}
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
        (["--suites", ","], "suites must name at least one suite"),
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
    b1 = golden_check.strip(json.loads(out1.read_text()))
    b2 = golden_check.strip(json.loads(out2.read_text()))
    assert json.dumps(b1, sort_keys=True) == json.dumps(b2, sort_keys=True)


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


@pytest.mark.parametrize("n, seed", [(32, 0), (48, 1)])
def test_pushforward_compatibility_is_a_residual_on_coarse_grids(n, seed):
    # the pushforward loses compatibility above PUSHFORWARD_COMPAT_TOL here:
    # the check reports how far, omega_invariance reports its own residual on
    # that metric, and pushforward_metric still holds the gate
    config = SuiteConfig(grid_sizes=(n,), seeds=(0, 1, 2), suites=("flow-invariance",))
    rec = run_record(config, "pushforward_compatibility", seed, n).records[0]
    assert math.isfinite(rec.residual) and rec.residual > rec.tolerance
    assert not rec.passed and "ValueError" not in rec.note
    omega = run_record(config, "omega_invariance", seed, n).records[0]
    assert math.isfinite(omega.residual) and omega.note == ""
    point = suites.SUITES["flow-invariance"](config, seed, n)
    with pytest.raises(ValueError, match="pushforward lost compatibility"):
        diffeo.pushforward_metric(point.phi, point.flow_metric)
