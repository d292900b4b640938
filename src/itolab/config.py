"""Experiment configs: versioned JSON schema, strict validation, builders.

A config is a JSON object:

    {
      "version": 1,
      "seed": 1234,
      "mode": "exact" | "sampled",
      "samples": 10000,
      "record_runtime": false,
      "constants": {"hj_factor": ..., "rosenthal_factor": ...,
                    "umd_constant": ..., "latala_constant": ..., "ito_band": ...},
      "checks": [ { "check": "<id>", ...check-specific keys... }, ... ]
    }

Unknown keys are rejected everywhere.  Processes and sequences are defined
by cell tables and atom tables, inline or via {"file": "path.json"}.

``CHECKS`` maps each check id to its keys with their defaults and to the
runner that turns one job into reports.
"""

from __future__ import annotations

import itertools
import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import checks as C
from . import randmat as RM
from .checks import ConstantTable
from .poisson import GridPartition, default_lambda_grid, verify_poisson_moment_bounds
from .integrator import SimpleAdaptedProcess, deterministic_process
from .instances import (element_space_of, random_element, random_independent_sequence,
                        random_positive_sequence)
from .prob import philox


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_TOP_KEYS = {"version", "seed", "mode", "samples", "record_runtime", "constants", "checks"}
_CONSTANT_KEYS = {"hj_factor", "rosenthal_factor", "umd_constant", "latala_constant",
                  "ito_band"}


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
    seed: int = 12345
    mode: str = "exact"
    samples: int = 10_000
    record_runtime: bool = False
    constants: ConstantTable = field(default_factory=ConstantTable)
    checks: list = field(default_factory=list)
    base_dir: str = "."


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    if raw.get("version") != 1:
        raise ConfigError("config requires \"version\": 1")
    mode = raw.get("mode", "exact")
    if mode not in ("exact", "sampled"):
        raise ConfigError(f"unknown mode {mode!r}")
    consts_raw = raw.get("constants", {})
    _reject_unknown(consts_raw, _CONSTANT_KEYS, "constants")
    constants = ConstantTable(**consts_raw)
    samples = _sample_count(raw.get("samples", 10_000), "samples")
    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("checks must be a list")
    for i, job in enumerate(checks):
        resolve_check(job, f"checks[{i}]")
    return ExperimentConfig(seed=int(raw.get("seed", 12345)), mode=mode,
                            samples=samples,
                            record_runtime=bool(raw.get("record_runtime", False)),
                            constants=constants, checks=checks, base_dir=base_dir)


# -- table builders --------------------------------------------------------------


def _resolve_file(obj: dict, base_dir: str) -> dict:
    if set(obj) == {"file"}:
        with open(os.path.join(base_dir, obj["file"])) as fh:
            return json.load(fh)
    return obj


def _parse_complex(v):
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(
            isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    if isinstance(v, (int, float)):
        return complex(v)
    raise ConfigError(f"cannot parse complex entry {v!r}")


def _parse_values(v, kind: str) -> np.ndarray:
    if kind == "commutative":
        return np.array([_parse_complex(x) for x in v])
    return np.array([[_parse_complex(x) for x in row] for row in v])


def process_from_table(obj: dict, base_dir: str = ".") -> SimpleAdaptedProcess:
    """Build a deterministic process from its grid and cell table."""
    obj = _resolve_file(obj, base_dir)
    _reject_unknown(obj, {"grid", "cells", "element"}, "process", {"grid", "cells"})
    grid_raw = obj["grid"]
    _reject_unknown(grid_raw, {"time_points", "marks"}, "process.grid", {"time_points", "marks"})
    marks = grid_raw["marks"]
    for m in marks:
        _reject_unknown(m, {"label", "measure"}, "process.grid.marks[]", {"label", "measure"})
    labels = tuple(m["label"] for m in marks)
    measures = np.array([float(m["measure"]) for m in marks])
    grid = GridPartition(np.asarray(grid_raw["time_points"], dtype=float),
                         labels, measures)
    elem_spec = obj.get("element", {"kind": "commutative", "weights": [1.0]})
    es = element_space_of(elem_spec)
    kind = elem_spec.get("kind", "matrix")
    cells = {}
    for cell in obj["cells"]:
        _reject_unknown(cell, {"i", "j", "value"}, "process.cells[]", {"i", "j", "value"})
        cells[(int(cell["i"]), int(cell["j"]))] = _parse_values(cell["value"], kind)
    return deterministic_process(grid, cells, es)


# -- the check table -------------------------------------------------------------

REQUIRED = object()  # default of a key that every job of its check must give
SCALAR_ELEMENT = {"kind": "commutative", "weights": [1.0]}


def _sample_count(n, where: str) -> int:
    """A Monte Carlo sample count: a CI needs at least 2 samples."""
    try:
        k = int(n)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be an integer, got {n!r}") from None
    if k < 2:
        raise ConfigError(f"{where} must be at least 2, got {n!r}")
    return k


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _stream(job_index: int, tag: str, k: int = 0) -> int:
    return (zlib.crc32(f"{tag}:{job_index}:{k}".encode()) & 0xFFFFFFFF) | (k << 32)


def _as_list(x):
    return list(x) if isinstance(x, (list, tuple)) else [x]


def _points(job: dict, axes: tuple):
    """(mixed-radix index, float exponents) over the job's exponent grid,
    last axis fastest, radix 97 per axis."""
    for point in itertools.product(*(enumerate(_as_list(job[a])) for a in axes)):
        key = 0
        for i, _ in point:
            key = key * 97 + i
        yield key, [float(v) for _, v in point]


def _swept(axes: tuple, draw, check):
    """Runner calling ``check(job, cfg, instance, *exponents)`` at each point
    of the exponent grid of ``axes`` on ``instances`` random instances.
    Instance ``inst`` at a point is ``draw(gen, job)``, with ``gen`` the
    Philox stream keyed by the point's index times 211 plus ``inst``."""

    def run(job: dict, idx: int, cfg: ExperimentConfig) -> list:
        out = []
        for key, exps in _points(job, axes):
            for inst in range(int(job["instances"])):
                gen = philox(cfg.seed, _stream(idx, job["check"], key * 211 + inst))
                out.append(check(job, cfg, draw(gen, job), *exps))
        return out

    return run


def _fixed(axes: tuple, build, check):
    """Runner calling ``check(job, cfg, instance, *exponents)`` at each point
    of the exponent grid of ``axes`` on the one instance ``build(job, cfg)``."""

    def run(job: dict, idx: int, cfg: ExperimentConfig) -> list:
        instance = build(job, cfg)
        return [check(job, cfg, instance, *exps) for _, exps in _points(job, axes)]

    return run


def _elements(gen, job: dict) -> list:
    return [random_element(gen, job["element"]) for _ in range(int(job["n_items"]))]


def _sequence(gen, job: dict, element=None):
    return random_independent_sequence(gen, int(job["n_items"]),
                                       element or job["element"], int(job["n_atoms"]))


def _process(job: dict, cfg: ExperimentConfig) -> SimpleAdaptedProcess:
    return process_from_table(job["process"], cfg.base_dir)


def _law_from(spec) -> RM.EntryLaw:
    if spec == "rademacher":
        return RM.rademacher_law()
    if spec == "gaussian":
        return RM.gaussian_law()
    params = spec.get("two_atom") if isinstance(spec, dict) and len(spec) == 1 else None
    if isinstance(params, dict):
        _reject_unknown(params, {"a", "prob", "fourth_finite"}, "two_atom law")
        try:
            return RM.two_atom_law(float(params["a"]), float(params["prob"]),
                                   bool(params.get("fourth_finite", True)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad two_atom law {params!r}: {exc!r}") from None
    raise ConfigError(f"unknown entry law {spec!r}")


def _ensemble(job: dict, n: int, structure: str) -> RM.MatrixEnsemble:
    d1 = int(job["d1"])
    d2 = d1 if job["d2"] is None else int(job["d2"])
    return RM.MatrixEnsemble(d1, d2, n, _law_from(job["law"]), structure)


def _samples(job: dict, cfg: ExperimentConfig) -> int:
    return cfg.samples if job["n_samples"] is None else int(job["n_samples"])


def _run_poisson_moment_bounds(job: dict, idx: int, cfg: ExperimentConfig) -> list:
    grid_spec = job["lambda_grid"]
    grid = default_lambda_grid(int(grid_spec.get("num", 60)),
                               float(grid_spec.get("lo", 1e-4)),
                               float(grid_spec.get("hi", 1.0)))
    return verify_poisson_moment_bounds(_as_list(job["p"]), grid, float(job["eps"]))


_SEQUENCE_KEYS = {"p": 2.0, "q": 2.0, "n_items": 3, "n_atoms": 2,
                  "element": SCALAR_ELEMENT, "instances": 3}
_MATRIX_KEYS = {"p": 2.0, "d1": 2, "d2": None, "law": "rademacher", "n_samples": None}

# check id -> (keys with their defaults, runner(job, job index, cfg) -> reports).
# A default of None is resolved by the runner: n_samples falls back to the
# config's samples, d2 to d1, a to the d x d all-ones pattern.  Runners call
# the checkers through their modules, so that wrappers installed on a module
# attribute see every call.
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
            xs, p, q, norm_exp=float(job["norm_exp"]), seed=cfg.seed))),
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
            gen, int(job["n_items"]), int(job["n_atoms"])),
            lambda job, cfg, seq, p: C.check_rosenthal_positive(seq, p, seed=cfg.seed))),
    "type_cotype": (
        {"q": 3.0, "n_items": 4, "element": SCALAR_ELEMENT, "instances": 3},
        _swept(("q",), _elements, lambda job, cfg, xs, q: C.check_type_cotype(
            xs, q, seed=cfg.seed))),
    "poisson_moment_bounds": (
        {"p": [2, 3, 4], "lambda_grid": {}, "eps": 1e-12}, _run_poisson_moment_bounds),
    "decoupling": (
        {"p": 2.0, "q": 2.0, "process": REQUIRED, "eps": 1e-10},
        _fixed(("p", "q"), _process, lambda job, cfg, F, p, q: C.check_decoupling(
            F, p, q, table=cfg.constants, eps=float(job["eps"]), seed=cfg.seed))),
    "doob": (
        {"p": 2.0, "q": 2.0, "process": REQUIRED, "n_samples": None},
        _fixed(("p", "q"), _process, lambda job, cfg, F, p, q: C.check_doob(
            F, p, q, n_samples=_samples(job, cfg), seed=cfg.seed))),
    "ito_isomorphism": (
        {"p": 2.0, "q": 2.0, "family": REQUIRED, "tol": 1e-4},
        _fixed(("p", "q"), lambda job, cfg: [process_from_table(tbl, cfg.base_dir)
                                             for tbl in job["family"]],
               lambda job, cfg, fam, p, q: C.check_ito_isomorphism(
                   fam, p, q, table=cfg.constants, tol=float(job["tol"]),
                   n_samples=cfg.samples, seed=cfg.seed))),
    "matrix_sum": (
        {**_MATRIX_KEYS, "n": 4},
        _fixed(("p",), lambda job, cfg: _ensemble(job, int(job["n"]), "summand"),
               lambda job, cfg, ens, p: RM.bound_matrix_sum(
                   ens, p, n_samples=_samples(job, cfg), seed=cfg.seed,
                   force_mc=cfg.mode == "sampled"))),
    "matrix_entries": (
        _MATRIX_KEYS,
        _fixed(("p",), lambda job, cfg: _ensemble(job, 1, "entries"),
               lambda job, cfg, ens, p: RM.bound_entry_matrix(
                   ens, p, n_samples=_samples(job, cfg), seed=cfg.seed,
                   force_mc=cfg.mode == "sampled"))),
    "latala": (
        _MATRIX_KEYS,
        _fixed(("p",), lambda job, cfg: _ensemble(job, 1, "entries"),
               lambda job, cfg, ens, p: RM.bound_latala(
                   ens, p, n_samples=_samples(job, cfg), seed=cfg.seed,
                   table=cfg.constants))),
    "seginer": (
        {"p": 2.0, "a": None, "d": 4},
        _fixed(("p",), lambda job, cfg: (np.ones((int(job["d"]),) * 2) if job["a"] is None
                                         else np.asarray(job["a"], dtype=float)),
               lambda job, cfg, a, p: RM.seginer_ensemble(a, p, seed=cfg.seed))),
}


def resolve_check(job, where: str):
    """(runner, job with defaults filled in) for one job of a config.

    ConfigError on an unknown check id, an unknown or missing key, a
    ``lambda_grid`` other than an object of num, lo and hi, an entry law that
    is not one of the known laws, fewer than 2 Monte Carlo samples, a p or q
    that is not a number or a non-empty list of numbers, a norm_exp that is
    not a number, a d1, d2, n, d, n_items, n_atoms or instances that is not
    an integer >= 1, an ``a`` that is not a non-empty 2-D array of numbers,
    or a ``matrix_sum`` or ``matrix_entries`` p below 2.
    """
    if not isinstance(job, dict) or "check" not in job:
        raise ConfigError(f"{where} must be an object with a \"check\" key")
    cid = job["check"]
    if cid not in CHECKS:
        raise ConfigError(f"unknown check id {cid!r}")
    keys, run = CHECKS[cid]
    where = f"{where} ({cid})"
    _reject_unknown(job, {"check", *keys}, where, [k for k, v in keys.items() if v is REQUIRED])
    if "lambda_grid" in job:
        _reject_unknown(job["lambda_grid"], {"num", "lo", "hi"}, f"lambda_grid in {where}")
    if "n_samples" in job:
        _sample_count(job["n_samples"], f"n_samples in {where}")
    if "law" in job:
        _law_from(job["law"])
    job = {**keys, **job}
    for k in ("p", "q", "norm_exp"):
        v = job.get(k, 1)
        swept = k != "norm_exp"
        if not (_real(v) or swept and isinstance(v, list) and v and all(map(_real, v))):
            raise ConfigError(f"{k} in {where} must be a number"
                              f"{' or a non-empty list of numbers' if swept else ''}, got {v!r}")
    for k in ("d1", "d2", "n", "d", "n_items", "n_atoms", "instances"):
        v = job.get(k, 1)
        if not (_real(v) and v >= 1 and v % 1 == 0 or k == "d2" and v is None):
            raise ConfigError(f"{k} in {where} must be an integer of at least 1, got {v!r}")
    a = job.get("a")
    if a is not None and not (isinstance(a, list) and a and all(
            isinstance(r, list) and len(r) == len(a[0]) > 0 and all(map(_real, r)) for r in a)):
        raise ConfigError(f"a in {where} must be a non-empty 2-D array of numbers, got {a!r}")
    for p in _as_list(job["p"]) if cid in ("matrix_sum", "matrix_entries") else ():
        if not (_real(p) and p >= 2):
            raise ConfigError(f"p in {where} must be a number of at least 2, got {p!r}")
    return run, job
