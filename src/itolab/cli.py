"""Experiment runner: declarative configs in, deterministic report tables out.

Subcommands: moments, rosenthal, integral, matrix, khintchine, suite.
Exit codes: 0 all hard assertions passed, 1 a check failed, 2 invalid
config, 3 resource budget exceeded.
Report-only rows never affect the exit code.  ITOLAB_WORKERS sizes the work
pool (default serial).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config import SCALAR_ELEMENT, ConfigError, ExperimentConfig, load_config, parse_config
from .prob import BudgetExceededError
from .report import FAIL, CheckReport

CSV_COLUMNS = ("check_id", "case_id", "p", "q", "lhs", "rhs", "constant",
               "provenance", "status", "tolerance", "seed", "runtime_ms")


def _run_job(run, job: dict, idx: int, cfg: ExperimentConfig) -> list[CheckReport]:
    t0 = time.perf_counter()
    out = run(job, idx, cfg)
    elapsed = (time.perf_counter() - t0) * 1000.0 / max(len(out), 1)
    for r in out:
        r.runtime_ms = elapsed
        if r.seed is None:
            r.seed = cfg.seed
    return out


def run_jobs(cfg: ExperimentConfig) -> list[CheckReport]:
    workers = int(os.environ.get("ITOLAB_WORKERS", "1") or "1")
    jobs = list(enumerate(cfg.jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda ij: _run_job(*ij[1], ij[0], cfg), jobs))
    else:
        results = [_run_job(run, job, i, cfg) for i, (run, job) in jobs]
    reports = [r for chunk in results for r in chunk]
    order = {FAIL: 0}
    reports.sort(key=lambda r: (order.get(r.status, 1), r.check_id,
                                r.p if r.p is not None else -1.0,
                                r.q if r.q is not None else -1.0))
    return reports


# -- emission --------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.17g}"
    return str(v)


def _jsonify(v):
    if isinstance(v, dict):
        return {k: _jsonify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_jsonify(x) for x in v.tolist()]
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return v


def emit(reports: list[CheckReport], path: str, fmt: str = "csv",
         record_runtime: bool = False) -> None:
    """Write reports as CSV or JSON with a stable column order and 17
    significant digits.  Runtime is zeroed unless requested, keeping outputs
    byte-identical across reruns with a fixed seed."""
    rows = []
    for r in reports:
        d = r.as_dict()
        if not record_runtime:
            d["runtime_ms"] = 0.0
        rows.append(d)
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for d in rows:
            lines.append(",".join(_fmt(d[c]) for c in CSV_COLUMNS))
        data = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = [{c: _jsonify(d[c]) for c in CSV_COLUMNS} | {"details": _jsonify(d["details"])}
                   for d in rows]
        data = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(data)


# -- default batteries -----------------------------------------------------------


def _default_process_table(lam: float = 0.5, value: float = 1.0) -> dict:
    return {"grid": {"time_points": [0.0, 1.0], "marks": [{"label": "A", "measure": lam}]},
            "cells": [{"i": 0, "j": 0, "value": [value]}],
            "element": {"kind": "commutative", "weights": [1.0]}}


def _two_cell_table(lams=(0.4, 0.8), values=(1.0, -2.0)) -> dict:
    nu = max(lams)
    pts = [0.0, lams[0] / nu, lams[0] / nu + lams[1] / nu]
    return {"grid": {"time_points": pts, "marks": [{"label": "A", "measure": nu}]},
            "cells": [{"i": 0, "j": 0, "value": [values[0]]},
                      {"i": 1, "j": 0, "value": [values[1]]}],
            "element": {"kind": "commutative", "weights": [1.0]}}


DEFAULT_BATTERIES = {
    "moments": [
        {"check": "poisson_moment_bounds", "p": [2, 2.5, 3, 4]},
    ],
    "khintchine": [
        {"check": "khintchine", "p": 2.0, "q": [2.0, 3.0, 4.0], "n_items": 4,
         "element": {"kind": "matrix", "dims": [2, 2]}, "instances": 3},
        {"check": "khintchine", "p": 2.0, "q": [2.0, 3.0], "n_items": 5,
         "element": SCALAR_ELEMENT, "instances": 3},
        {"check": "kahane", "p": 4.0, "q": 2.0, "n_items": 5, "instances": 3},
    ],
    "rosenthal": [
        {"check": "symmetrization", "p": [2.0, 3.0], "q": 2.0, "n_items": 3,
         "instances": 4},
        {"check": "rosenthal_scalar", "p": [2.0, 3.0, 4.0], "n_items": 4, "instances": 4},
        {"check": "rosenthal_positive", "p": 3.0, "n_items": 4, "instances": 3},
        {"check": "hoffmann_jorgensen", "p": 4.0, "q": 2.0, "n_items": 4, "instances": 3},
        {"check": "pq_ge2", "p": [2.0, 4.0], "q": [2.0, 2.5],
         "element": {"kind": "matrix", "dims": [2, 2]}, "n_items": 3, "instances": 2},
        {"check": "rosenthal_lq", "p": [3.0, 1.5], "q": [2.5, 1.5],
         "element": SCALAR_ELEMENT, "n_items": 3, "instances": 2},
    ],
    "integral": [
        {"check": "decoupling", "p": [2.0, 3.0], "q": 2.0,
         "process": _default_process_table()},
        {"check": "decoupling", "p": 2.0, "q": 3.0, "process": _two_cell_table()},
        {"check": "doob", "p": 3.0, "q": 2.0, "process": _two_cell_table(),
         "n_samples": 4000},
        {"check": "ito_isomorphism", "p": [3.0, 1.5], "q": [2.5],
         "family": [_default_process_table(0.05), _default_process_table(0.5),
                    _two_cell_table()]},
    ],
    "matrix": [
        {"check": "matrix_sum", "p": [2.0, 4.0], "d1": 2, "d2": 2, "n": 4,
         "law": "rademacher"},
        {"check": "matrix_sum", "p": 2.0, "d1": 4, "d2": 4, "n": 8, "law": "gaussian",
         "n_samples": 4000},
        {"check": "matrix_entries", "p": 2.0, "d1": 4, "d2": 4, "law": "rademacher",
         "n_samples": 4000},
        {"check": "latala", "p": 2.0, "d1": 4, "d2": 4, "law": "rademacher",
         "n_samples": 4000},
        {"check": "seginer", "p": 2.0, "d": 4},
    ],
}
DEFAULT_BATTERIES["suite"] = [job for name in
                              ("moments", "khintchine", "rosenthal", "integral", "matrix")
                              for job in DEFAULT_BATTERIES[name]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="itolab",
                                     description="inequality verification lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("moments", "rosenthal", "integral", "matrix", "khintchine", "suite"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--mode", choices=("exact", "sampled"), default=None)
    args = parser.parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
        else:
            cfg = parse_config({"version": 1, "checks": DEFAULT_BATTERIES[args.command]})
        if args.seed is not None:
            cfg.seed = args.seed
        if args.mode is not None:
            cfg.mode = args.mode
        reports = run_jobs(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    for r in reports:
        tag = {"pass": "pass", "fail": "FAIL"}.get(r.status, "info")
        pq = f" p={r.p:g}" if r.p is not None else ""
        pq += f" q={r.q:g}" if r.q is not None else ""
        print(f"[{tag}] {r.check_id}{pq} lhs={r.lhs:.6g} rhs={r.rhs:.6g}")
    if args.out:
        emit(reports, args.out, args.format, cfg.record_runtime)
        print(f"wrote {len(reports)} rows to {args.out}")
    return 1 if any(r.status == FAIL for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
