"""The four benchmark workloads, as itolab config dicts built from a seed.

Every workload is a version-1 config that ``itolab.config.parse_config``
accepts; the seed is written into the config, and the few inputs that the
config spells out (process cell values) are drawn from it here.  Only values
change with the seed, never shapes, grids, sample counts or the exact/Monte
Carlo choice; the optimizer's iteration counts do follow the values.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 12345  # the seed ``itolab suite`` uses without --seed

SCALAR = {"kind": "commutative", "weights": [1.0]}
MATRIX2 = {"kind": "matrix", "dims": [2, 2]}

# The six acceptance regime points, one per case of the composite tree:
# (3, 2.5) is case 1 (a pure maximum, no optimizer), the others cases 2..6.
REGIME_POINTS = ((3.0, 2.5), (2.5, 3.0), (1.5, 3.0), (3.0, 1.5), (1.8, 1.5), (1.5, 1.8))


def _values(seed: int):
    """Generator for the cell values a config spells out."""
    return np.random.Generator(np.random.Philox(key=seed))


def _scalar(gen) -> list:
    return [float(gen.choice((-1.0, 1.0)) * gen.uniform(0.5, 2.0))]


def _process(lams, values, element=SCALAR) -> dict:
    """Cell table on one mark whose interval lengths give the intensities."""
    nu = max(lams)
    pts = [0.0]
    for lam in lams:
        pts.append(pts[-1] + lam / nu)
    return {"grid": {"time_points": pts, "marks": [{"label": "A", "measure": nu}]},
            "cells": [{"i": i, "j": 0, "value": v} for i, v in enumerate(values)],
            "element": element}


def suite(seed: int) -> dict:
    from itolab.cli import DEFAULT_BATTERIES
    return {"version": 1, "seed": seed, "checks": DEFAULT_BATTERIES["suite"]}


def sumnorm(seed: int) -> dict:
    """Sequence sums at every regime point, one 2x2 sequence sum (which also
    runs check_rosenthal_lq's case-0 S_c + S_r tree) and process sums at a
    p >= 2 and a p < 2 point.  Each optimizer call is bounded by the
    checkers' own restart and iteration limits rather than by input size, so
    the job count sets the pass time: about as long as one ``suite`` pass."""
    gen = _values(seed)
    checks = [{"check": "rosenthal_lq", "p": p, "q": q, "element": SCALAR,
               "n_items": 3, "instances": 1} for p, q in REGIME_POINTS]
    checks.append({"check": "rosenthal_lq", "p": 1.5, "q": 1.8, "element": MATRIX2,
                   "n_items": 2, "instances": 1})
    for p, q in ((2.5, 3.0), (1.8, 1.5)):
        family = [_process([0.05], [_scalar(gen)]),
                  _process([0.4, 0.8], [_scalar(gen), _scalar(gen)])]
        checks.append({"check": "ito_isomorphism", "p": p, "q": q, "family": family})
    return {"version": 1, "seed": seed, "checks": checks}


def _matrix_jobs(n_samples: int) -> list:
    return [
        {"check": "matrix_sum", "p": 2.0, "d1": 2, "d2": 2, "n": 4,
         "law": "rademacher", "n_samples": n_samples},
        {"check": "matrix_sum", "p": 3.0, "d1": 2, "d2": 3, "n": 2,
         "law": "rademacher", "n_samples": n_samples},
        {"check": "matrix_entries", "p": 4.0, "d1": 4, "d2": 4,
         "law": "rademacher", "n_samples": n_samples},
    ]


def _three_cells(gen) -> dict:
    return _process([0.2, 0.3, 0.25], [_scalar(gen) for _ in range(3)])


def enumerate_(seed: int) -> dict:
    gen = _values(seed)
    checks = [
        {"check": "khintchine", "p": 3.0, "q": [2.0, 3.0], "n_items": 14,
         "element": {"kind": "matrix", "dims": [3, 3]}, "instances": 1},
        {"check": "kahane", "p": 4.0, "q": [2.0, 3.0], "n_items": 12, "instances": 2},
        {"check": "symmetrization", "p": [2.0, 3.0], "q": 2.0, "n_items": 5,
         "element": MATRIX2, "instances": 2},
        {"check": "rosenthal_scalar", "p": [2.0, 3.0, 4.0], "n_items": 8, "instances": 2},
        {"check": "pq_ge2", "p": [2.0, 4.0], "q": [2.0, 3.0], "element": MATRIX2,
         "n_items": 5, "instances": 1},
        {"check": "decoupling", "p": [2.0, 3.0], "q": 2.0, "eps": 1e-6,
         "process": _three_cells(gen)},
    ] + _matrix_jobs(4000) + [
        {"check": "latala", "p": 2.0, "d1": 4, "d2": 4, "law": "rademacher"},
        {"check": "seginer", "p": 2.0, "d": 4},
    ]
    return {"version": 1, "seed": seed, "checks": checks}


def sampled(seed: int) -> dict:
    gen = _values(seed)
    checks = _matrix_jobs(40_000) + [
        {"check": "matrix_sum", "p": 2.0, "d1": 8, "d2": 8, "n": 4, "law": "gaussian",
         "n_samples": 20_000},
        {"check": "matrix_entries", "p": 2.0, "d1": 8, "d2": 8, "law": "gaussian",
         "n_samples": 40_000},
        {"check": "latala", "p": 2.0, "d1": 8, "d2": 8, "law": "gaussian",
         "n_samples": 20_000},
        {"check": "doob", "p": [2.0, 3.0], "q": 2.0, "process": _three_cells(gen),
         "n_samples": 100_000},
    ]
    return {"version": 1, "seed": seed, "mode": "sampled", "checks": checks}


WORKLOADS = {"suite": suite, "sumnorm": sumnorm, "enumerate": enumerate_,
             "sampled": sampled}
