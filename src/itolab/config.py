"""Experiment configs: versioned JSON schema, strict validation, builders.

``KINDS`` maps every key of a config, top level or job, to the kind that
validates and types its value; README.md lists them.  ``CHECKS`` maps each
check id to its keys with their defaults and to the runner that turns one
typed job into reports.  Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import zlib
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import checks as C
from . import randmat as RM
from .checks import ConstantTable
from .lq import ExponentPair, InvalidInputError
from .poisson import GridPartition, default_lambda_grid, verify_poisson_moment_bounds
from .integrator import SimpleAdaptedProcess, deterministic_process
from .instances import (element_space_of, random_element, random_independent_sequence,
                        random_positive_sequence)
from .prob import philox


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _reject_unknown(obj: dict, allowed: set, where: str, required=()):
    """ConfigError unless ``obj`` is an object of ``allowed`` and ``required`` keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")


@dataclass(eq=False)
class ExperimentConfig:
    """Typed top-level keys, the jobs as written, and each job's (runner, typed job)."""

    seed: int
    mode: str
    samples: int
    record_runtime: bool
    constants: ConstantTable
    checks: list
    jobs: list


def _read_json(*path: str):
    try:
        with open(os.path.join(*path)) as fh:
            return json.load(fh)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read {path[-1]!r}: {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    return parse_config(_read_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


_TOP_DEFAULTS = {"seed": 12345, "mode": "exact", "samples": 10_000,
                 "record_runtime": False, "constants": {}}


def parse_config(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    """Every key through its kind: a config that parses raises no ConfigError later."""
    _reject_unknown(raw, {"version", "checks", *_TOP_DEFAULTS}, "config")
    _value(raw.get("version"), "config version", ok=lambda v: v == 1, domain="1")
    top = {k: KINDS[k](raw.get(k, v), k) for k, v in _TOP_DEFAULTS.items()}
    checks = _list(raw.get("checks", []), "checks", empty_ok=True)
    jobs = [resolve_check(job, f"checks[{i}]", base_dir) for i, job in enumerate(checks)]
    return ExperimentConfig(**top, checks=checks, jobs=jobs)


# -- key kinds: kind(value, key, check id, base_dir) -> typed value ----------------


def _value(v, what: str, *_, ok, domain: str):
    if not ok(v):
        raise ConfigError(f"{what} must be {domain}, got {v!r}")
    return v


def _number(v, what: str, *_, ok=math.isfinite, domain="a finite number") -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not ok(v):
        raise ConfigError(f"{what} must be {domain}, got {v!r}")
    return float(v)


def _integer(v, what: str, *_, lo: int = 1) -> int:
    return int(_number(v, what, ok=lambda x: x >= lo and x % 1 == 0,
                       domain=f"an integer of at least {lo}"))


_POSITIVE = {"ok": lambda x: 0 < x < math.inf, "domain": "a finite number > 0"}
_FLAG = {"ok": lambda v: isinstance(v, bool), "domain": "true or false"}


def _list(v, what: str, empty_ok: bool = False) -> list:
    return _value(v, what, ok=lambda x: isinstance(x, list) and (empty_ok or x),
                  domain="a list" if empty_ok else "a non-empty list")


def _rows(v, what: str, entry) -> list:
    """A non-empty list of equally long non-empty rows, each entry through ``entry``."""
    rows = [[entry(x) for x in _list(r, what)] for r in _list(v, what)]
    return _value(rows, what, ok=lambda r: len(set(map(len, r))) == 1, domain="equal-length rows")


# check id -> lowest p and q its checker accepts, where narrower than the
# default 1 <= p, q < inf (ExponentPair); None is 1 < p, q, as rosenthal_lq needs
_EXPONENT_FLOOR = {"matrix_sum": 2.0, "matrix_entries": 2.0, "rosenthal_scalar": 2.0,
                   "pq_ge2": 2.0, "rosenthal_lq": None}


def _exponents(v, key: str, cid: str, *_) -> list:
    """A number or a non-empty list of numbers in the check's domain, as a list."""
    floor = _EXPONENT_FLOOR.get(cid, 1.0)
    xs = [_number(x, key, ok=lambda x: x >= (floor or 1.0), domain="a number "
                  + ("above 1" if floor is None else f"of at least {floor:g}"))
          for x in (v if isinstance(v, list) and v else [v])]
    for x in xs:
        ExponentPair(x, x, allow_p_one=floor is not None, allow_q_one=floor is not None)
    return xs


def _element(spec, what: str, *_) -> dict:
    """An element spec with its defaults filled in."""
    _reject_unknown(spec, {"kind", "weights", "dims"}, what)
    kind = _value(spec.get("kind", "matrix"), f"{what} kind",
                  ok=lambda k: k in ("commutative", "matrix"), domain="commutative or matrix")
    if kind == "commutative":
        _reject_unknown(spec, {"kind", "weights"}, f"commutative {what}")
        return {"kind": kind, "weights": [_number(w, f"{what} weights", **_POSITIVE) for w in
                                          _list(spec.get("weights", [1.0]), f"{what} weights")]}
    _reject_unknown(spec, {"kind", "dims"}, f"matrix {what}")
    dims = _value(spec.get("dims", [2, 2]), f"{what} dims", domain="two integers",
                  ok=lambda d: isinstance(d, list) and len(d) == 2)
    return {"kind": kind, "dims": [_integer(d, f"{what} dims") for d in dims]}


def _law(spec, *_) -> RM.EntryLaw:
    if spec == "rademacher":
        return RM.rademacher_law()
    if spec == "gaussian":
        return RM.gaussian_law()
    if not (isinstance(spec, dict) and set(spec) == {"two_atom"}):
        raise ConfigError(f"unknown entry law {spec!r}")
    params = spec["two_atom"]
    _reject_unknown(params, {"a", "prob", "fourth_finite"}, "two_atom law", {"a", "prob"})
    return RM.two_atom_law(_number(params["a"], "two_atom a"),
                           _number(params["prob"], "two_atom prob"),
                           _value(params.get("fourth_finite", True), "fourth_finite", **_FLAG))


_GRID_DEFAULTS = {k: par.default
                  for k, par in inspect.signature(default_lambda_grid).parameters.items()}


def _lambda_grid(spec, key: str, *_) -> np.ndarray:
    _reject_unknown(spec, set(_GRID_DEFAULTS), key)
    g, unit = {**_GRID_DEFAULTS, **spec}, {"ok": lambda x: 0 < x <= 1, "domain": "in (0, 1]"}
    return default_lambda_grid(_integer(g["num"], f"{key} num"),
                               *(_number(g[k], f"{key} {k}", **unit) for k in ("lo", "hi")))


def _constants(spec, key: str, *_) -> ConstantTable:
    """Each stand-in a number > 0 or null (report-only); ito_band a number."""
    _reject_unknown(spec, {f.name for f in fields(ConstantTable)}, key)
    return ConstantTable(**{k: None if v is None and k != "ito_band" else
                            _number(v, f"{key} {k}", **_POSITIVE) for k, v in spec.items()})


# key -> kind; a job key whose default is None also takes null
KINDS = {
    "seed": partial(_integer, lo=0), "samples": partial(_integer, lo=2),
    "mode": partial(_value, ok=lambda v: v in ("exact", "sampled"), domain="exact or sampled"),
    "record_runtime": partial(_value, **_FLAG), "constants": _constants,
    "p": _exponents, "q": _exponents, "norm_exp": partial(_number, **_POSITIVE),
    "eps": partial(_number, ok=lambda x: 0 < x < 1, domain="a number in (0, 1)"),
    "tol": partial(_number, **_POSITIVE), "n_samples": partial(_integer, lo=2),
    **dict.fromkeys(("n_items", "n_atoms", "instances", "d1", "d2", "n", "d"), _integer),
    "element": _element, "law": _law, "lambda_grid": _lambda_grid,
    "a": lambda v, key, *_: _rows(v, key, partial(_number, what=key)),
    "process": lambda v, key, _, base_dir: process_from_table(v, base_dir),
    "family": lambda v, key, _, base_dir: [process_from_table(t, base_dir) for t in _list(v, key)],
}


def _complex(v) -> complex:
    pair = isinstance(v, list) and len(v) == 2
    return complex(*(_number(x, "cell entry") for x in (v if pair else [v])))


def process_from_table(obj: dict, base_dir: str = ".") -> SimpleAdaptedProcess:
    """Build a deterministic process from its grid and cell table."""
    if isinstance(obj, dict) and set(obj) == {"file"}:
        obj = _read_json(base_dir, obj["file"])
    _reject_unknown(obj, {"grid", "cells", "element"}, "process", {"grid", "cells"})
    grid_raw = obj["grid"]
    _reject_unknown(grid_raw, {"time_points", "marks"}, "process.grid", {"time_points", "marks"})
    marks = _list(grid_raw["marks"], "process.grid.marks")
    for m in marks:
        _reject_unknown(m, {"label", "measure"}, "process.grid.marks[]", {"label", "measure"})
    grid = GridPartition(
        [_number(t, "time point") for t in _list(grid_raw["time_points"], "time_points")],
        tuple(m["label"] for m in marks), [_number(m["measure"], "measure") for m in marks])
    elem = _element(obj.get("element", SCALAR_ELEMENT), "process.element")
    cells = {}
    for c in _list(obj["cells"], "process.cells", empty_ok=True):
        _reject_unknown(c, {"i", "j", "value"}, "process.cells[]", {"i", "j", "value"})
        v = c["value"]
        cells[(_integer(c["i"], "cell i", lo=0), _integer(c["j"], "cell j", lo=0))] = np.array(
            [_complex(x) for x in _list(v, "cell value")] if elem["kind"] == "commutative"
            else _rows(v, "cell value", _complex))
    return deterministic_process(grid, cells, element_space_of(elem))


# -- the check table -------------------------------------------------------------

REQUIRED = object()  # default of a key that every job of its check must give
SCALAR_ELEMENT = {"kind": "commutative", "weights": [1.0]}


def _stream(job_index: int, tag: str, k: int = 0) -> int:
    return (zlib.crc32(f"{tag}:{job_index}:{k}".encode()) & 0xFFFFFFFF) | (k << 32)


def _points(job: dict, axes: tuple):
    """(mixed-radix index, exponents) over the job's exponent grid, last axis
    fastest, radix 97 per axis."""
    for point in itertools.product(*(enumerate(job[a]) for a in axes)):
        key = 0
        for i, _ in point:
            key = key * 97 + i
        yield key, [v for _, v in point]


def _swept(axes: tuple, draw, check):
    """Runner calling ``check(job, cfg, instance, *exponents)`` at each point
    of the exponent grid of ``axes`` on ``instances`` random instances.
    Instance ``inst`` at a point is ``draw(gen, job)``, with ``gen`` the
    Philox stream keyed by the point's index times 211 plus ``inst``."""

    def run(job: dict, idx: int, cfg: ExperimentConfig) -> list:
        out = []
        for key, exps in _points(job, axes):
            for inst in range(job["instances"]):
                gen = philox(cfg.seed, _stream(idx, job["check"], key * 211 + inst))
                out.append(check(job, cfg, draw(gen, job), *exps))
        return out

    return run


def _fixed(axes: tuple, build, check):
    """Runner calling ``check(job, cfg, instance, *exponents)`` at each point
    of the exponent grid of ``axes`` on the one instance ``build(job)``."""

    def run(job: dict, idx: int, cfg: ExperimentConfig) -> list:
        instance = build(job)
        return [check(job, cfg, instance, *exps) for _, exps in _points(job, axes)]

    return run


def _elements(gen, job: dict) -> list:
    return [random_element(gen, job["element"]) for _ in range(job["n_items"])]


def _sequence(gen, job: dict, element=None):
    return random_independent_sequence(gen, job["n_items"], element or job["element"],
                                       job["n_atoms"])


def _ensemble(job: dict, n: int, structure: str) -> RM.MatrixEnsemble:
    return RM.MatrixEnsemble(job["d1"], job["d2"] or job["d1"], n, job["law"], structure)


_SEQUENCE_KEYS = {"p": 2.0, "q": 2.0, "n_items": 3, "n_atoms": 2,
                  "element": SCALAR_ELEMENT, "instances": 3}
_MATRIX_KEYS = {"p": 2.0, "d1": 2, "d2": None, "law": "rademacher", "n_samples": None}

# check id -> (keys with their defaults, runner(typed job, job index, cfg) ->
# reports).  Runners resolve a None default: n_samples to the config's
# samples, d2 to d1, a to the d x d all-ones pattern.  They call the checkers
# through their modules, so that wrappers on a module attribute see every call.
CHECKS = {
    "khintchine": (
        {"p": 2.0, "q": 2.0, "n_items": 4, "element": {"kind": "matrix", "dims": [2, 2]},
         "instances": 3},
        _swept(("p", "q"), _elements, lambda job, cfg, xs, p, q: C.check_khintchine(
            xs, p, q, seed=cfg.seed))),
    "kahane": (
        {"p": 4.0, "q": 2.0, "norm_exp": 2.0, "n_items": 4, "element": SCALAR_ELEMENT,
         "instances": 3},
        _swept(("p", "q"), _elements, lambda job, cfg, xs, p, q: C.check_kahane(
            xs, p, q, norm_exp=job["norm_exp"], seed=cfg.seed))),
    "symmetrization": (_SEQUENCE_KEYS, _swept(
        ("p", "q"), _sequence, lambda job, cfg, seq, p, q: C.check_symmetrization(
            seq, p, q, seed=cfg.seed))),
    "hoffmann_jorgensen": (_SEQUENCE_KEYS, _swept(
        ("p", "q"), _sequence, lambda job, cfg, seq, p, q: C.check_hoffmann_jorgensen(
            seq, p, q, table=cfg.constants, seed=cfg.seed))),
    "rosenthal_lq": (_SEQUENCE_KEYS, _swept(
        ("p", "q"), _sequence, lambda job, cfg, seq, p, q: C.check_rosenthal_lq(
            seq, p, q, seed=cfg.seed))),
    "pq_ge2": (_SEQUENCE_KEYS, _swept(
        ("p", "q"), _sequence, lambda job, cfg, seq, p, q: C.check_pq_ge2_equivalence(
            seq, p, q, seed=cfg.seed))),
    "rosenthal_scalar": (
        {"p": 3.0, "n_items": 4, "n_atoms": 2, "instances": 5},
        _swept(("p",), lambda gen, job: _sequence(gen, job, SCALAR_ELEMENT),
               lambda job, cfg, seq, p: C.check_rosenthal_scalar(
                   seq, p, table=cfg.constants, seed=cfg.seed))),
    "rosenthal_positive": (
        {"p": 3.0, "n_items": 4, "n_atoms": 2, "instances": 3},
        _swept(("p",), lambda gen, job: random_positive_sequence(
            gen, job["n_items"], job["n_atoms"]),
            lambda job, cfg, seq, p: C.check_rosenthal_positive(seq, p, seed=cfg.seed))),
    "type_cotype": (
        {"q": 3.0, "n_items": 4, "element": SCALAR_ELEMENT, "instances": 3},
        _swept(("q",), _elements, lambda job, cfg, xs, q: C.check_type_cotype(
            xs, q, seed=cfg.seed))),
    "poisson_moment_bounds": (
        {"p": [2, 3, 4], "lambda_grid": {}, "eps": 1e-12},
        lambda job, idx, cfg: verify_poisson_moment_bounds(
            job["p"], job["lambda_grid"], job["eps"])),
    "decoupling": (
        {"p": 2.0, "q": 2.0, "process": REQUIRED, "eps": 1e-10},
        _fixed(("p", "q"), lambda job: job["process"],
               lambda job, cfg, F, p, q: C.check_decoupling(
                   F, p, q, table=cfg.constants, eps=job["eps"], seed=cfg.seed))),
    "doob": (
        {"p": 2.0, "q": 2.0, "process": REQUIRED, "n_samples": None},
        _fixed(("p", "q"), lambda job: job["process"],
               lambda job, cfg, F, p, q: C.check_doob(
                   F, p, q, n_samples=job["n_samples"] or cfg.samples, seed=cfg.seed))),
    "ito_isomorphism": (
        {"p": 2.0, "q": 2.0, "family": REQUIRED, "tol": 1e-4},
        _fixed(("p", "q"), lambda job: job["family"],
               lambda job, cfg, fam, p, q: C.check_ito_isomorphism(
                   fam, p, q, table=cfg.constants, tol=job["tol"],
                   n_samples=cfg.samples, seed=cfg.seed))),
    "matrix_sum": (
        {**_MATRIX_KEYS, "n": 4},
        _fixed(("p",), lambda job: _ensemble(job, job["n"], "summand"),
               lambda job, cfg, ens, p: RM.bound_matrix_sum(
                   ens, p, n_samples=job["n_samples"] or cfg.samples, seed=cfg.seed,
                   force_mc=cfg.mode == "sampled"))),
    "matrix_entries": (
        _MATRIX_KEYS,
        _fixed(("p",), lambda job: _ensemble(job, 1, "entries"),
               lambda job, cfg, ens, p: RM.bound_entry_matrix(
                   ens, p, n_samples=job["n_samples"] or cfg.samples, seed=cfg.seed,
                   force_mc=cfg.mode == "sampled"))),
    "latala": (
        _MATRIX_KEYS,
        _fixed(("p",), lambda job: _ensemble(job, 1, "entries"),
               lambda job, cfg, ens, p: RM.bound_latala(
                   ens, p, n_samples=job["n_samples"] or cfg.samples, seed=cfg.seed,
                   table=cfg.constants))),
    "seginer": (
        {"p": 2.0, "a": None, "d": 4},
        _fixed(("p",), lambda job: job["a"] or np.ones((job["d"],) * 2),
               lambda job, cfg, a, p: RM.seginer_ensemble(a, p, seed=cfg.seed))),
}


def resolve_check(job, where: str, base_dir: str = "."):
    """(runner, typed job) for one job: each key of its check through its kind,
    defaults filled in.  ConfigError on an unknown check id, an unknown or
    missing key, or a bad value, also when a builder raises InvalidInputError."""
    cid = job.get("check") if isinstance(job, dict) else None
    _value(cid, f"{where} check", ok=lambda c: isinstance(c, str) and c in CHECKS,
           domain="a known check id")
    keys, run = CHECKS[cid]
    where = f"{where} ({cid})"
    _reject_unknown(job, {"check", *keys}, where, [k for k, v in keys.items() if v is REQUIRED])
    try:
        return run, {"check": cid, **{k: None if v is None and job.get(k) is None
                                      else KINDS[k](job.get(k, v), k, cid, base_dir)
                                      for k, v in keys.items()}}
    except (ConfigError, InvalidInputError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
