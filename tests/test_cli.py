import hashlib
import json
import math
import os
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

from itolab import checks, lq, prob, randmat
from itolab.cli import CSV_COLUMNS, DEFAULT_BATTERIES, emit, main, run_jobs
from itolab.config import (_TOP_DEFAULTS, CHECKS, KINDS, ConfigError, load_config,
                           parse_config, process_from_table)
from itolab.report import NOT_FINITE, CheckReport
from itolab.seqnorms import LqSequence

PERFBENCH = Path(__file__).parents[1] / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config({"version": 1, "bogus": 1, "checks": []})
    with pytest.raises(ConfigError):
        parse_config({"version": 1, "checks": [{"check": "khintchine", "zzz": 1}]})
    with pytest.raises(ConfigError):
        parse_config({"version": 2, "checks": []})
    with pytest.raises(ConfigError):
        parse_config({"version": 1, "checks": [{"check": "made_up"}]})
    with pytest.raises(ConfigError):
        parse_config({"version": 1, "mode": "psychic", "checks": []})
    with pytest.raises(ConfigError):
        parse_config({"version": 1, "constants": {"nope": 1.0}, "checks": []})


def test_empty_check_list_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"version": 1, "checks": []}))
    code = main(["suite", "--config", str(cfg)])
    assert code == 0


def test_single_trivial_check_passes(tmp_path):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({
        "version": 1, "seed": 5,
        "checks": [{"check": "khintchine", "p": 2.0, "q": 2.0, "n_items": 1,
                    "instances": 1}]}))
    out = tmp_path / "r.csv"
    code = main(["khintchine", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert ",pass," in lines[1]


def test_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["suite", "--config", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["suite", "--config", str(missing)]) == 2


_ONE_CELL = {"grid": {"time_points": [0.0, 1.0], "marks": [{"label": "A", "measure": 0.5}]},
             "cells": [{"i": 0, "j": 0, "value": [1.0]}]}


_CELL_OUTSIDE = dict(_ONE_CELL, cells=[{"i": 5, "j": 0, "value": [1.0]}])
# one cell of intensity 2: outside the process norms' range lam <= 1
_UNREFINED = dict(_ONE_CELL, grid={"time_points": [0.0, 2.0],
                                   "marks": [{"label": "A", "measure": 1.0}]})
_MEASURE_X = dict(_ONE_CELL, grid={"time_points": [0.0, 1.0],
                                   "marks": [{"label": "A", "measure": "x"}]})
_NO_INTERVAL = dict(_ONE_CELL, cells=[], grid={"time_points": [0.0],
                                              "marks": [{"label": "A", "measure": 0.5}]})

_BAD_CONFIGS = {
    "unknown-law": ({}, {"check": "matrix_sum", "law": "cauchy"}),
    "two-atom-without-a": ({}, {"check": "latala", "law": {"two_atom": {"prob": 0.3}}}),
    "doob-without-process": ({}, {"check": "doob"}),
    "ito-without-family": ({}, {"check": "ito_isomorphism", "p": 2.0}),
    "process-unknown-key": ({}, {"check": "decoupling", "process": dict(_ONE_CELL, bogus=1)}),
    "missing-process-file": ({}, {"check": "decoupling",
                                  "process": {"file": "no_such_process.json"}}),
    "one-sample": ({}, {"check": "doob", "process": _ONE_CELL, "n_samples": 1}),
    "zero-samples": ({}, {"check": "matrix_sum", "n_samples": 0}),
    "one-top-level-sample": ({"samples": 1}, {"check": "seginer"}),
    "process-without-grid": ({}, {"check": "decoupling", "process": {"cells": []}}),
    "process-without-cells": ({}, {"check": "decoupling",
                                   "process": {"grid": _ONE_CELL["grid"]}}),
    "mark-without-label": ({}, {"check": "decoupling", "process": dict(_ONE_CELL, grid={
        "time_points": [0.0, 1.0], "marks": [{"measure": 0.5}]})}),
    "mark-without-measure": ({}, {"check": "decoupling", "process": dict(_ONE_CELL, grid={
        "time_points": [0.0, 1.0], "marks": [{"label": "A"}]})}),
    "lambda-grid-unknown-key": ({}, {"check": "poisson_moment_bounds", "p": 2,
                                     "lambda_grid": {"nmu": 5}}),
    "lambda-grid-list": ({}, {"check": "poisson_moment_bounds", "p": 2,
                              "lambda_grid": [5, 1e-4, 1.0]}),
    "seginer-1d-a": ({}, {"check": "seginer", "a": [1, 2]}),
    "matrix-sum-zero-d1": ({}, {"check": "matrix_sum", "d1": 0}),
    "matrix-sum-zero-n": ({}, {"check": "matrix_sum", "n": 0}),
    "entries-negative-d1": ({}, {"check": "matrix_entries", "d1": -1}),
    "matrix-sum-p-below-2": ({}, {"check": "matrix_sum", "p": 1.5}),
    "entries-p-below-2": ({}, {"check": "matrix_entries", "p": 1.5}),
    "kahane-string-p": ({}, {"check": "kahane", "p": "x"}),
    "khintchine-zero-items": ({}, {"check": "khintchine", "n_items": 0}),
    "kahane-empty-p": ({}, {"check": "kahane", "p": []}),
    "symmetrization-zero-instances": ({}, {"check": "symmetrization", "instances": 0}),
    "kahane-list-norm-exp": ({}, {"check": "kahane", "norm_exp": [2.0, 3.0]}),
    "kahane-norm-exp-below-1": ({}, {"check": "kahane", "norm_exp": 0.5}),
    "kahane-negative-p": ({}, {"check": "kahane", "p": -1}),
    "kahane-q-below-1": ({}, {"check": "kahane", "q": 0.5}),
    "string-eps": ({}, {"check": "poisson_moment_bounds", "eps": "x"}),
    "decoupling-zero-eps": ({}, {"check": "decoupling", "process": _ONE_CELL, "eps": 0}),
    "ito-tol-key": ({}, {"check": "ito_isomorphism", "family": [_ONE_CELL], "tol": 1e-4}),
    "rosenthal-scalar-p-below-2": ({}, {"check": "rosenthal_scalar", "p": 1.5}),
    "pq-ge2-p-below-2": ({}, {"check": "pq_ge2", "p": 1.5}),
    "rosenthal-lq-p-1": ({}, {"check": "rosenthal_lq", "p": 1}),
    "doob-p-1-zero-process": ({}, {"check": "doob", "p": 1, "process": dict(
        _ONE_CELL, cells=[{"i": 0, "j": 0, "value": [0.0]}])}),
    "doob-p-1": ({}, {"check": "doob", "p": 1, "process": _ONE_CELL}),
    "poisson-p-below-1": ({}, {"check": "poisson_moment_bounds", "p": [0.5]}),
    "lambda-grid-zero-lo": ({}, {"check": "poisson_moment_bounds", "lambda_grid": {"lo": 0}}),
    "lambda-grid-string-num": ({}, {"check": "poisson_moment_bounds",
                                    "lambda_grid": {"num": "x"}}),
    "empty-family": ({}, {"check": "ito_isomorphism", "family": []}),
    "unrefined-family": ({}, {"check": "ito_isomorphism", "family": [_UNREFINED]}),
    "cell-outside-grid": ({}, {"check": "decoupling", "process": _CELL_OUTSIDE}),
    "string-measure": ({}, {"check": "decoupling", "process": _MEASURE_X}),
    "grid-without-interval": ({}, {"check": "doob", "process": _NO_INTERVAL}),
    "string-seed": ({"seed": "abc"}, {"check": "seginer"}),
    "fractional-seed": ({"seed": 1.5}, {"check": "seginer"}),
    "string-record-runtime": ({"record_runtime": "no"}, {"check": "seginer"}),
    "string-constant": ({"constants": {"hj_factor": "x"}}, {"check": "seginer"}),
    "null-ito-band": ({"constants": {"ito_band": None}}, {"check": "seginer"}),
    "element-bogus-kind": ({}, {"check": "kahane", "element": {"kind": "bogus"}}),
    "element-unknown-key": ({}, {"check": "kahane", "element": {"kind": "commutative",
                                                                 "zzz": 1}}),
    "element-negative-weight": ({}, {"check": "kahane", "element": {"kind": "commutative",
                                                                     "weights": [-1]}}),
    "element-one-dim": ({}, {"check": "khintchine", "element": {"kind": "matrix",
                                                                 "dims": [2]}}),
    "element-zero-dim": ({}, {"check": "khintchine", "element": {"kind": "matrix",
                                                                  "dims": [0, 2]}}),
    "process-element-bogus-kind": ({}, {"check": "decoupling", "process": dict(
        _ONE_CELL, element={"kind": "bogus"})}),
}


@pytest.mark.parametrize("top, job", _BAD_CONFIGS.values(), ids=_BAD_CONFIGS.keys())
def test_config_errors_exit_2(tmp_path, capsys, top, job):
    # every one exits 2 with a one-line message
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"version": 1, **top, "checks": [job]}))
    assert main(["suite", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize("top, job", _BAD_CONFIGS.values(), ids=_BAD_CONFIGS.keys())
def test_config_errors_are_found_at_parse_time(top, job):
    # process tables and files are read while parsing, so no job runs
    with pytest.raises(ConfigError):
        parse_config({"version": 1, **top, "checks": [job]})


def test_doob_takes_q_1():
    # Doob's p must exceed 1 (see _BAD_CONFIGS); its q may be 1
    cfg = parse_config({"version": 1, "checks": [{"check": "doob", "q": 1, "process": _ONE_CELL}]})
    assert cfg.jobs[0][1]["q"] == [1.0]


def test_every_check_key_has_a_kind():
    # both ways: every key has a kind, and every kind is some key's, so a
    # key that leaves every check takes its kind with it
    for cid, (keys, _) in CHECKS.items():
        assert set(keys) <= set(KINDS), cid
    assert set(KINDS) == set(_TOP_DEFAULTS).union(*(keys for keys, _ in CHECKS.values()))


def test_type_cotype_rows_are_pinned():
    # type_cotype is in no default battery or benchmark workload, so no
    # digest covers its instance streams (q index * 211 + instance); these
    # are its rows at seed 12345
    cfg = parse_config({"version": 1, "seed": 12345, "checks": [
        {"check": "type_cotype", "q": [2.0, 3.0], "instances": 2}]})
    rows = [(r.q, r.lhs) for r in run_jobs(cfg)]
    assert rows == [(2.0, 2.0677437519750876), (2.0, 3.136244847466343),
                    (3.0, 4.636902889744171), (3.0, 3.1753146262991168)]


# one small job of each check id; khintchine at q < 2 and type_cotype are in
# no default battery or benchmark workload
_ONE_JOB_EACH = {
    "khintchine": {"q": 1.5, "n_items": 2, "instances": 1},
    "kahane": {"n_items": 2, "instances": 1},
    "symmetrization": {"n_items": 2, "instances": 1},
    "hoffmann_jorgensen": {"n_items": 2, "instances": 1},
    "rosenthal_lq": {"p": 3.0, "q": 2.5, "n_items": 2, "instances": 1},
    "pq_ge2": {"n_items": 2, "instances": 1},
    "rosenthal_scalar": {"n_items": 2, "instances": 1},
    "rosenthal_positive": {"n_items": 2, "instances": 1},
    "type_cotype": {"n_items": 2, "instances": 1},
    "poisson_moment_bounds": {"p": 2},
    "decoupling": {"process": _ONE_CELL},
    "doob": {"process": _ONE_CELL, "n_samples": 200},
    "ito_isomorphism": {"family": [_ONE_CELL]},
    "matrix_sum": {"n": 2},
    "matrix_entries": {"n_samples": 200},
    "latala": {"n_samples": 200},
    "seginer": {"d": 2},
}


def test_the_runner_writes_the_config_seed_on_every_row():
    cfg = parse_config({"version": 1, "seed": 3, "checks": [
        {"check": cid, **job} for cid, job in _ONE_JOB_EACH.items()]})
    rows = run_jobs(cfg)
    assert set(_ONE_JOB_EACH) == set(CHECKS) == {r.check_id for r in rows}
    assert [r.seed for r in rows] == [3] * len(rows)


def test_failure_exit_code(tmp_path):
    # an absurdly tight configured band forces a hard failure
    cfg = tmp_path / "fail.json"
    cfg.write_text(json.dumps({
        "version": 1, "seed": 3,
        "constants": {"ito_band": 1.0 + 1e-9},
        "checks": [{"check": "ito_isomorphism", "p": 4.0, "q": 2.0,
                    "family": [
                        {"grid": {"time_points": [0.0, 1.0],
                                  "marks": [{"label": "A", "measure": 0.02}]},
                         "cells": [{"i": 0, "j": 0, "value": [1.0]}],
                         "element": {"kind": "commutative", "weights": [1.0]}},
                        {"grid": {"time_points": [0.0, 1.0],
                                  "marks": [{"label": "A", "measure": 1.0}]},
                         "cells": [{"i": 0, "j": 0, "value": [1.0]}],
                         "element": {"kind": "commutative", "weights": [1.0]}}]}]}))
    assert main(["integral", "--config", str(cfg)]) == 1


def test_report_only_rows_do_not_fail(tmp_path):
    cfg = tmp_path / "ro.json"
    cfg.write_text(json.dumps({
        "version": 1,
        "checks": [{"check": "latala", "p": 2.0, "d1": 2, "d2": 2,
                    "law": "rademacher", "n_samples": 500}]}))
    assert main(["matrix", "--config", str(cfg)]) == 0


def test_deterministic_csv_bytes(tmp_path):
    cfg_dict = {"version": 1, "seed": 99, "checks": [
        {"check": "khintchine", "p": 2.0, "q": [2.0, 3.0], "n_items": 3,
         "instances": 2},
        {"check": "rosenthal_scalar", "p": 3.0, "n_items": 3, "instances": 2},
        {"check": "matrix_sum", "p": 2.0, "d1": 2, "d2": 2, "n": 4,
         "law": "rademacher", "n_samples": 400},
    ]}
    paths = []
    for k in (0, 1):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(json.dumps(cfg_dict))
        out = tmp_path / f"out{k}.csv"
        assert main(["suite", "--config", str(cfg), "--out", str(out)]) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("workload", ["suite", "sumnorm", "enumerate", "sampled"])
def test_default_suite_csv_is_byte_identical_to_reference(tmp_path, workload):
    # the benchmark's reference digests at the default seed: `itolab suite
    # --out`, and the exact and Monte Carlo randmat workloads through --config;
    # a change that moves any of their numbers has to say so and rewrite them
    ref = json.loads((PERFBENCH / "reference.json").read_text())[workload]
    args = []
    if workload != "suite":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(WORKLOADS[workload](ref["seed"])))
        args = ["--config", str(cfg)]
    out = tmp_path / "out.csv"
    assert main(["suite", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ref["csv_sha256"]


@pytest.mark.parametrize("workload, builds", [("suite", 3), ("enumerate", 3), ("sampled", 6)])
def test_operator_norm_laws_built_per_pass(law_builds, workload, builds):
    # equal matrix ensembles of consecutive jobs share one law, and the first
    # matrix job of a pass never has the last one's law: no law outlives its run
    cfg = parse_config(WORKLOADS[workload](12345))
    for _ in range(2):
        law_builds.clear()
        run_jobs(cfg)
        assert len(law_builds) == builds
        assert randmat._last_law == {}


@pytest.mark.parametrize("job", [{"check": "symmetrization", "p": 1000},
                                 {"check": "rosenthal_scalar", "p": 1000},
                                 {"check": "rosenthal_scalar", "p": 1e308}],
                         ids=["symmetrization", "rosenthal_scalar-p1000", "rosenthal_scalar"])
def test_no_pass_on_a_non_finite_side(job):
    # an overflowed moment makes the relative slack inf, and inf <= x + inf
    # would pass: the slack is NaN instead, and the row fails with a note.
    # The randomized sum's nested sign mean and norm_D still overflow at a
    # large p
    reports = run_jobs(parse_config({"version": 1, "checks": [job]}))
    overflowed = [r for r in reports if not (math.isfinite(r.lhs) and math.isfinite(r.rhs))]
    assert overflowed
    for r in overflowed:
        assert r.status == "fail"
        assert "not finite" in r.details["note"]


_THREE = dict(_ONE_CELL, cells=[{"i": 0, "j": 0, "value": [3.0]}])
# (job, status, lhs, rhs): the moments divide by the largest value before the
# power, so a large p gives finite sides and the verdict of the inequality
_LARGE_P = {
    "khintchine": ({"check": "khintchine", "p": 2000, "instances": 1}, "pass",
                   8.03392, 6.07009),
    "khintchine-q302": ({"check": "khintchine", "q": 302, "instances": 1}, "pass",
                        5.68160, 5.20214),
    "kahane": ({"check": "kahane", "p": 1000, "instances": 1}, "pass", 3.98017, 2.38913),
    "kahane-norm_exp2000": ({"check": "kahane", "p": 1000, "q": 1000, "norm_exp": 2000,
                             "instances": 1}, "pass", 3.98017, 3.98017),
    "matrix_sum": ({"check": "matrix_sum", "p": 1000}, "pass", 7.92824, 201507),
    "hoffmann_jorgensen": ({"check": "hoffmann_jorgensen", "p": 1000, "instances": 1},
                           "report-only", None, None),
    "rosenthal_positive": ({"check": "rosenthal_positive", "p": 1000, "instances": 1},
                           "report-only", None, None),
    "doob": ({"check": "doob", "p": 1000, "process": _THREE}, "pass", None, None),
}


@pytest.mark.parametrize("job, status, lhs, rhs", _LARGE_P.values(), ids=_LARGE_P.keys())
def test_large_exponents_give_finite_moments(job, status, lhs, rhs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (r,) = run_jobs(parse_config({"version": 1, "seed": 1, "checks": [job]}))
    assert math.isfinite(r.lhs)
    assert r.status == status
    if status != "report-only":
        assert math.isfinite(r.rhs)
    if lhs is not None:
        assert (r.lhs, r.rhs) == pytest.approx((lhs, rhs), rel=1e-5)


def test_large_q_gives_finite_element_norms():
    # the L^q norms of the sums divide by the largest modulus: the Rademacher
    # moment is finite, while norm_D's own power sums still overflow
    with np.errstate(over="ignore", invalid="ignore"):
        (r,) = run_jobs(parse_config({"version": 1, "seed": 1, "checks": [
            {"check": "type_cotype", "q": 2000, "instances": 1}]}))
        (k,) = run_jobs(parse_config({"version": 1, "seed": 1, "checks": [
            {"check": "khintchine", "q": 2000, "instances": 1}]}))
    assert r.lhs == pytest.approx(3.84243, rel=1e-5)
    assert r.rhs == math.inf and "not finite" in r.details["note"]
    assert r.status == "report-only"
    # q = 2000 is past where K_{q,q}'s exact quotient overflows a float; the
    # row still fails, because norm_S's own power sums overflow
    assert math.isfinite(k.lhs) and math.isfinite(k.constant)


@pytest.mark.parametrize("check", ["khintchine", "kahane"])
def test_each_row_enumerates_its_sign_sums_once(monkeypatch, check):
    # every moment of a row is read off one law of the sign-sum norms
    calls = []
    sign_sum_norms = checks._sign_sum_norms

    def counted(seq, q):
        calls.append(q)
        return sign_sum_norms(seq, q)

    monkeypatch.setattr(checks, "_sign_sum_norms", counted)
    reports = run_jobs(parse_config({"version": 1, "checks": [
        {"check": check, "q": [2, 3], "instances": 1}]}))
    assert len(reports) == len(calls) == 2


@pytest.mark.parametrize("check", [c for c, (keys, _) in CHECKS.items() if "n_items" in keys])
def test_sign_sum_checks_names_every_check_that_enumerates_signs(monkeypatch, check):
    # the config caps n_items for exactly the checks that reach _sign_sum_norms
    calls = []
    sign_sum_norms = checks._sign_sum_norms

    def counted(seq, q):
        calls.append(q)
        return sign_sum_norms(seq, q)

    monkeypatch.setattr(checks, "_sign_sum_norms", counted)
    run_jobs(parse_config({"version": 1, "checks": [{"check": check, "instances": 1}]}))
    assert bool(calls) == (check in checks.SIGN_SUM_CHECKS)


def test_hoffmann_jorgensen_norms_its_sum_once_per_row(monkeypatch):
    # one norm of the sum variable, (atoms, points), and one of the items,
    # (items, atoms, points), per row
    shapes = []

    def counted(values, q, weights=None):
        shapes.append(np.shape(values))
        return lq.batch_norm_q(values, q, weights)

    for module in (checks, prob):
        monkeypatch.setattr(module, "batch_norm_q", counted)
    reports = run_jobs(parse_config({"version": 1, "checks": [
        {"check": "hoffmann_jorgensen", "p": [2, 4], "instances": 1}]}))
    assert sorted(len(s) for s in shapes) == [2] * len(reports) + [3] * len(reports)


def test_hoffmann_jorgensen_overflow_has_no_nan():
    # 2p overflows at p = 1e308: the shape still comes out finite, and the
    # overflowed moments give a noted row without a ratio instead of NaN
    reports = run_jobs(parse_config({"version": 1, "checks": [
        {"check": "hoffmann_jorgensen", "p": 1e308, "instances": 1}]}))
    assert reports
    for r in reports:
        assert not (math.isnan(r.lhs) or math.isnan(r.rhs))
        assert not math.isnan(r.details.get("ratio", 0.0))
        assert 0.0 < r.details["shape"] < math.inf
        assert r.status == "report-only"
        if not (math.isfinite(r.lhs) and math.isfinite(r.rhs)):
            assert "not finite" in r.details["note"]


@pytest.mark.parametrize("a", [0.0, 1e-200], ids=["zero", "underflow"])
def test_latala_zero_terms_exit_0(tmp_path, capsys, a):
    # a zero entry law, or one whose second and fourth moments underflow,
    # has a zero terms sum: its ratios are 0 or inf, not a ZeroDivisionError
    cfg = tmp_path / "latala.json"
    cfg.write_text(json.dumps({"version": 1, "checks": [
        {"check": "latala", "law": {"two_atom": {"a": a, "prob": 0.5}}}]}))
    assert main(["suite", "--config", str(cfg)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_doob_integrates_the_last_interval_of_a_long_grid(tmp_path):
    # the final time 1000000001 lies within math.isclose of the breakpoint
    # 1e9; the only nonzero cell is on the last interval, so the integral is
    # N - 0.5 with N Poisson(0.5), and neither side of the row is 0
    cfg = tmp_path / "doob.json"
    cfg.write_text(json.dumps({"version": 1, "seed": 1, "checks": [{
        "check": "doob", "p": 2, "q": 2, "n_samples": 2000, "process": {
            "grid": {"time_points": [0, 1e9, 1000000001],
                     "marks": [{"label": "A", "measure": 0.5}]},
            "cells": [{"i": 1, "j": 0, "value": [1.0]}]}}]}))
    out = tmp_path / "doob.json.out"
    assert main(["suite", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    (row,) = json.loads(out.read_text())
    assert row["lhs"] == pytest.approx(math.sqrt(0.5), rel=0.05)
    assert row["rhs"] == pytest.approx(2 * row["lhs"], rel=1e-12)


# (constants, job, status): config paths that no default battery or workload
# takes, a configured rosenthal_factor and kahane at q = 1, where no constant
# is stated
_CONSTANT_PATHS = {
    "rosenthal_factor": ({"rosenthal_factor": 2.0},
                         {"check": "rosenthal_scalar", "instances": 1}, "pass"),
    "rosenthal_factor-tight": ({"rosenthal_factor": 1e-3},
                               {"check": "rosenthal_scalar", "instances": 1}, "fail"),
    "kahane-q1": ({}, {"check": "kahane", "q": 1, "instances": 1}, "report-only"),
}


@pytest.mark.parametrize("constants, job, status", _CONSTANT_PATHS.values(),
                         ids=_CONSTANT_PATHS.keys())
def test_configured_and_unstated_constants(constants, job, status):
    (r,) = run_jobs(parse_config({"version": 1, "seed": 1, "constants": constants,
                                  "checks": [job]}))
    assert r.status == status
    if "rosenthal_factor" in constants:
        assert r.details["upper_constant"] == (constants["rosenthal_factor"]
                                               * r.details["upper_shape"])
    else:
        assert math.isnan(r.constant)


def test_seginer_draws_the_config_samples():
    # a 5 x 5 pattern has 2^25 sign configurations, so its law is sampled
    (r,) = run_jobs(parse_config({"version": 1, "seed": 3, "samples": 200,
                                  "checks": [{"check": "seginer", "d": 5}]}))
    expected = randmat.seginer_ensemble(np.ones((5, 5)), 2.0, n_samples=200, seed=3)
    assert r.details["monte_carlo"] is True
    assert r.lhs == expected.lhs


_NAN_PRONE = {"rosenthal_positive": {"check": "rosenthal_positive", "p": 1e308, "instances": 1},
              "symmetrization": {"check": "symmetrization", "p": 1e308, "instances": 1},
              "pq_ge2": {"check": "pq_ge2", "p": 1e308, "instances": 1},
              "rosenthal_lq": {"check": "rosenthal_lq", "p": 1e308, "q": 2.0, "instances": 1},
              "type_cotype": {"check": "type_cotype", "q": 1e308, "instances": 1},
              # the summands are finite and their sum overflows: its norm is inf
              "matrix_sum": {"check": "matrix_sum",
                             "law": {"two_atom": {"a": 1e308, "prob": 0.5}}}}


@pytest.mark.parametrize("job", _NAN_PRONE.values(), ids=_NAN_PRONE.keys())
def test_no_nan_in_any_report(job):
    # overflowed moments make NaN ratios and slacks: the report drops each
    # one and notes the row instead
    reports = run_jobs(parse_config({"version": 1, "checks": [job]}))
    assert reports
    for r in reports:
        assert not (math.isnan(r.lhs) or math.isnan(r.rhs))
        assert not any(isinstance(v, float) and math.isnan(v) for v in r.details.values())
    assert any("not finite" in r.details.get("note", "") for r in reports)


def test_zero_over_zero_is_not_a_non_finite_side():
    # both sides 0 make a ratio of 0 (report.ratio), not a NaN that the report
    # would drop and note as a side that is not finite
    zeros = [lq.LqElement(np.zeros(1), lq.point_space())] * 2
    sym = checks.check_symmetrization(LqSequence.deterministic(zeros), 3.0, 2.0)
    kahane = checks.check_kahane(zeros, 4.0, 2.0)
    for rep in (sym, kahane):
        assert (rep.lhs, rep.rhs, rep.status) == (0.0, 0.0, "pass")
        assert rep.details["ratio"] == 0.0 and "note" not in rep.details
    (seginer,) = run_jobs(parse_config({"version": 1, "seed": 1, "checks": [
        {"check": "seginer", "a": [[0, 0], [0, 0]]}]}))
    assert seginer.details["ratio"] == seginer.details["normalized"] == 0.0
    assert seginer.details["note"] == "p beyond the stated range; recorded anyway"


_MATRIX = {"kind": "matrix", "dims": [2, 2]}
_NO_CELLS = dict(_ONE_CELL, cells=[])


def _one_mark(measure: float) -> dict:
    return dict(_ONE_CELL, grid={"time_points": [0.0, 1.0],
                                 "marks": [{"label": "A", "measure": measure}]})


# configs that parse and used to raise while running; the exit code each gets
_HOSTILE = {
    # the zero process: its element spec gives the value shape
    "doob-no-cells": ({"check": "doob", "process": _NO_CELLS, "n_samples": 200}, 0),
    "doob-no-cells-matrix": ({"check": "doob", "process": dict(_NO_CELLS, element=_MATRIX),
                              "n_samples": 200}, 0),
    "decoupling-no-cells": ({"check": "decoupling", "process": _NO_CELLS}, 0),
    "decoupling-no-cells-matrix": ({"check": "decoupling",
                                    "process": dict(_NO_CELLS, element=_MATRIX)}, 0),
    # a zero member has R = inf, so the band is inf
    "ito-member-no-cells": ({"check": "ito_isomorphism", "family": [_ONE_CELL, _NO_CELLS]}, 1),
    "ito-member-no-cells-matrix": ({"check": "ito_isomorphism",
                                    "family": [dict(_NO_CELLS, element=_MATRIX)]}, 1),
    # 2^25 sign patterns: past the enumeration cap
    **{f"{cid}-25-items": ({"check": cid, "n_items": 25}, 2)
       for cid in ("khintchine", "kahane", "type_cotype")},
    "symmetrization-25-items": ({"check": "symmetrization", "n_items": 25, "n_atoms": 1}, 2),
    # the balancing atom -a prob / (1 - prob) overflows
    "two-atom-overflow": ({"check": "matrix_sum",
                           "law": {"two_atom": {"a": 1e308, "prob": 0.999}}}, 2),
    # k^p leaves the float range: the moment is summed from logarithms, and
    # past p of about 219 it is an inf side, noted, that does not pass
    "poisson-p200": ({"check": "poisson_moment_bounds", "p": [200]}, 0),
    **{f"poisson-p{p:g}": ({"check": "poisson_moment_bounds", "p": [p]}, 1)
       for p in (500, 1000, 1e5)},
    # exp(-800) underflows: too wide to enumerate
    "decoupling-measure-800": ({"check": "decoupling", "process": _one_mark(800.0)}, 3),
    # past numpy's Poisson sampler
    "doob-measure-1e19": ({"check": "doob", "process": _one_mark(1e19), "n_samples": 200}, 2),
    # the scale-invariance member is 32 times member 0's rescaled table, so
    # its norm neither underflows nor overflows
    **{f"ito-value-{v:g}": ({"check": "ito_isomorphism",
                             "family": [dict(_ONE_CELL, cells=[{"i": 0, "j": 0, "value": [v]}])]},
                            0)
       for v in (1e-200, 1e200)},
}


@pytest.mark.parametrize("job, code", _HOSTILE.values(), ids=_HOSTILE.keys())
def test_hostile_config_exits_cleanly(tmp_path, job, code):
    cfg = tmp_path / "hostile.json"
    cfg.write_text(json.dumps({"version": 1, "seed": 1, "checks": [job]}))
    out = tmp_path / "out.json"
    assert main(["suite", "--config", str(cfg), "--out", str(out), "--format", "json"]) == code
    rows = json.loads(out.read_text()) if out.exists() else []
    for row in rows:
        if not (math.isfinite(row["lhs"]) and math.isfinite(row["rhs"])):
            assert row["status"] != "pass" and row["details"]["note"] == NOT_FINITE
    if job["check"] in ("doob", "decoupling") and code == 0:
        assert [(r["status"], r["lhs"], r["rhs"]) for r in rows] == [("pass", 0.0, 0.0)]


def test_emit_json_round_trip(tmp_path):
    rep = CheckReport("demo", lhs=math.pi, rhs=1 / 3, constant=2.0,
                      provenance="explicit", status="pass", p=2.0, q=3.0,
                      tolerance=1e-9, seed=7, details={"ratio": 0.123456789012345678})
    out = tmp_path / "r.json"
    emit([rep], str(out), "json")
    data = json.loads(out.read_text())
    assert data[0]["lhs"] == rep.lhs  # float round-trips exactly through json
    assert data[0]["rhs"] == rep.rhs
    assert data[0]["details"]["ratio"] == rep.details["ratio"]


def test_emit_csv_17_digits(tmp_path):
    rep = CheckReport("demo", lhs=1.2345678901234567, rhs=0.1, constant=1.0,
                      provenance="explicit", status="pass")
    out = tmp_path / "r.csv"
    emit([rep], str(out), "csv")
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[CSV_COLUMNS.index("lhs")]) == rep.lhs


def test_emit_sorts_failures_first(tmp_path):
    reports = [
        CheckReport("zz", 1.0, 1.0, 1.0, "explicit", "pass"),
        CheckReport("aa", 2.0, 1.0, 1.0, "explicit", "fail"),
        CheckReport("mm", 1.0, 1.0, 1.0, "explicit", "report-only"),
    ]
    from itolab.cli import run_jobs  # sorting lives in run_jobs; emulate here
    order = {"fail": 0}
    reports.sort(key=lambda r: (order.get(r.status, 1), r.check_id))
    assert reports[0].status == "fail"
    out = tmp_path / "s.csv"
    emit(reports, str(out), "csv")
    lines = out.read_text().splitlines()
    assert ",fail," in lines[1]


def test_default_batteries_parse():
    for name, jobs in DEFAULT_BATTERIES.items():
        cfg = parse_config({"version": 1, "checks": jobs})
        assert len(cfg.jobs) == len(jobs)


def test_process_from_table_file_reference(tmp_path):
    inner = {"grid": {"time_points": [0.0, 1.0],
                      "marks": [{"label": "A", "measure": 0.5}]},
             "cells": [{"i": 0, "j": 0, "value": [2.0]}],
             "element": {"kind": "commutative", "weights": [1.0]}}
    ref = tmp_path / "proc.json"
    ref.write_text(json.dumps(inner))
    F = process_from_table({"file": "proc.json"}, str(tmp_path))
    assert F.grid.n_intervals == 1
    assert F.coefficients[(0, 0)].values[0] == 2.0


def test_process_table_complex_entries():
    tbl = {"grid": {"time_points": [0.0, 1.0],
                    "marks": [{"label": "A", "measure": 0.5}]},
           "cells": [{"i": 0, "j": 0, "value": [[1.0, -2.0]]}],
           "element": {"kind": "commutative", "weights": [1.0]}}
    F = process_from_table(tbl)
    assert F.coefficients[(0, 0)].values[0] == 1.0 - 2.0j


def test_runtime_zeroed_by_default(tmp_path):
    cfg = parse_config({"version": 1, "checks": [
        {"check": "khintchine", "p": 2.0, "q": 2.0, "n_items": 2, "instances": 1}]})
    reports = run_jobs(cfg)
    out = tmp_path / "t.csv"
    emit(reports, str(out), "csv")
    row = out.read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("runtime_ms")] == "0"


def test_seed_and_mode_flags_override_the_battery(tmp_path):
    out = tmp_path / "matrix.json"
    assert main(["matrix", "--seed", "7", "--mode", "sampled", "--out", str(out),
                 "--format", "json"]) == 0
    data = json.loads(out.read_text())
    assert {row["seed"] for row in data} == {7}
    sums = [row for row in data if row["check_id"] == "matrix_sum"]
    assert len(sums) == 3 and all(row["details"]["monte_carlo"] is True for row in sums)


def test_sampled_mode_forces_monte_carlo(tmp_path):
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({
        "version": 1, "seed": 4, "mode": "sampled", "samples": 500,
        "checks": [{"check": "matrix_sum", "p": 2.0, "d1": 2, "d2": 2, "n": 4,
                    "law": "rademacher"}]}))
    out = tmp_path / "mc.json.out"
    code = main(["matrix", "--config", str(cfg), "--out", str(out), "--format", "json"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data[0]["details"]["monte_carlo"] is True
