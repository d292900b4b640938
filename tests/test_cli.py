import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from itolab.cli import CSV_COLUMNS, DEFAULT_BATTERIES, emit, main, run_jobs
from itolab.config import (CHECKS, KINDS, ConfigError, load_config, parse_config,
                           process_from_table)
from itolab.report import CheckReport


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
_MEASURE_X = dict(_ONE_CELL, grid={"time_points": [0.0, 1.0],
                                   "marks": [{"label": "A", "measure": "x"}]})

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
    "kahane-negative-p": ({}, {"check": "kahane", "p": -1}),
    "kahane-q-below-1": ({}, {"check": "kahane", "q": 0.5}),
    "string-eps": ({}, {"check": "poisson_moment_bounds", "eps": "x"}),
    "decoupling-zero-eps": ({}, {"check": "decoupling", "process": _ONE_CELL, "eps": 0}),
    "ito-negative-tol": ({}, {"check": "ito_isomorphism", "family": [_ONE_CELL], "tol": -1}),
    "rosenthal-scalar-p-below-2": ({}, {"check": "rosenthal_scalar", "p": 1.5}),
    "pq-ge2-p-below-2": ({}, {"check": "pq_ge2", "p": 1.5}),
    "rosenthal-lq-p-1": ({}, {"check": "rosenthal_lq", "p": 1}),
    "poisson-p-below-1": ({}, {"check": "poisson_moment_bounds", "p": [0.5]}),
    "lambda-grid-zero-lo": ({}, {"check": "poisson_moment_bounds", "lambda_grid": {"lo": 0}}),
    "lambda-grid-string-num": ({}, {"check": "poisson_moment_bounds",
                                    "lambda_grid": {"num": "x"}}),
    "empty-family": ({}, {"check": "ito_isomorphism", "family": []}),
    "cell-outside-grid": ({}, {"check": "decoupling", "process": _CELL_OUTSIDE}),
    "string-measure": ({}, {"check": "decoupling", "process": _MEASURE_X}),
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


def test_every_check_key_has_a_kind():
    for cid, (keys, _) in CHECKS.items():
        assert set(keys) <= set(KINDS), cid


def test_type_cotype_rows_are_pinned():
    # type_cotype is in no default battery or benchmark workload, so no
    # digest covers its instance streams (q index * 211 + instance); these
    # are its rows at seed 12345
    cfg = parse_config({"version": 1, "seed": 12345, "checks": [
        {"check": "type_cotype", "q": [2.0, 3.0], "instances": 2}]})
    rows = [(r.q, r.lhs) for r in run_jobs(cfg)]
    assert rows == [(2.0, 2.0677437519750876), (2.0, 3.136244847466343),
                    (3.0, 4.636902889744171), (3.0, 3.1753146262991168)]


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


def test_default_suite_csv_is_byte_identical_to_reference(tmp_path, monkeypatch):
    # the benchmark's reference digest of `itolab suite --out` at the default
    # seed; a change that moves any suite number has to say so and rewrite it
    ref = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())
    monkeypatch.delenv("ITOLAB_WORKERS", raising=False)
    out = tmp_path / "suite.csv"
    assert main(["suite", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ref["suite"]["csv_sha256"]


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
        assert cfg.checks == jobs


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


def test_worker_pool_same_results(tmp_path, monkeypatch):
    cfg = parse_config({"version": 1, "seed": 123, "checks": [
        {"check": "khintchine", "p": 2.0, "q": 2.0, "n_items": 3, "instances": 2},
        {"check": "rosenthal_scalar", "p": 3.0, "n_items": 3, "instances": 2}]})
    serial = run_jobs(cfg)
    monkeypatch.setenv("ITOLAB_WORKERS", "4")
    parallel = run_jobs(cfg)
    assert [r.lhs for r in serial] == [r.lhs for r in parallel]
    assert [r.check_id for r in serial] == [r.check_id for r in parallel]


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
