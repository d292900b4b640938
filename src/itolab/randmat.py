"""Operator-norm moment bounds for sums of independent random matrices.

The two-sided bound checked here: for p >= 2 and d = min(d1, d2),

    (E || sum_i xi_i ||^p)^(1/p)
        <= 2 (1 + sqrt 2) C_{p,d} max{ ||(sum E |xi_i|^2)^(1/2)||,
                                       ||(sum E |xi_i*|^2)^(1/2)||,
                                       2 C_{p/2,d} (E max_i ||xi_i||^p)^(1/p) },

with the reverse direction: the max term at 2^(1+1/p) and both square
function terms at 2.  The entrywise corollary replaces the square functions
by row/column second-moment maxima.  Latala's first-moment bound and the
rank-one extremal ensemble are recorded report-only for comparison.

Exact enumeration is used when the total entry-configuration count stays
below 2^22, otherwise Monte Carlo with CI-widened thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lq import InvalidInputError
from .checks import ConstantTable, DEFAULT_TABLE, c_pd
from .prob import moment_ci, philox
from .report import (CONFIGURED, EXPLICIT, FAIL, MEASURED, PASS, REPORT_ONLY,
                     CheckReport)

EXACT_CONFIG_CAP = 1 << 22
_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class EntryLaw:
    """Mean-zero scalar law for matrix entries.

    Discrete laws carry explicit atoms/probs; the Gaussian law samples only.
    ``fourth_finite`` marks laws standing in for heavy tails (the two-atom
    analogue of infinite fourth moment) as inapplicable to fourth-moment
    bounds.
    """

    name: str
    atoms: np.ndarray | None = None
    probs: np.ndarray | None = None
    fourth_finite: bool = True

    def __post_init__(self):
        if self.atoms is not None:
            a = np.asarray(self.atoms, dtype=float)
            p = np.asarray(self.probs, dtype=float)
            if abs(float((a * p).sum())) > 1e-12 * max(1.0, np.abs(a).max()):
                raise InvalidInputError("entry law must be mean-zero")
            object.__setattr__(self, "atoms", a)
            object.__setattr__(self, "probs", p)

    @property
    def is_discrete(self) -> bool:
        return self.atoms is not None

    def abs_moment(self, r: float) -> float:
        if self.is_discrete:
            return float((np.abs(self.atoms) ** r * self.probs).sum())
        # standard normal absolute moments: 2^(r/2) Gamma((r+1)/2) / sqrt(pi)
        return 2.0 ** (r / 2.0) * math.gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)

    def sample(self, gen: np.random.Generator, shape) -> np.ndarray:
        if self.is_discrete:
            cum = np.cumsum(self.probs)
            cum[-1] = 1.0
            idx = np.searchsorted(cum, gen.random(shape), side="right")
            return self.atoms[np.minimum(idx, len(self.atoms) - 1)]
        return gen.standard_normal(shape)


def rademacher_law() -> EntryLaw:
    return EntryLaw("rademacher", np.array([1.0, -1.0]), np.array([0.5, 0.5]))


def gaussian_law() -> EntryLaw:
    return EntryLaw("gaussian")


def two_atom_law(a: float, prob: float, fourth_finite: bool = True) -> EntryLaw:
    """Value a with probability prob, balanced to mean zero."""
    if not (0 < prob < 1):
        raise InvalidInputError("prob must lie in (0, 1)")
    b = -a * prob / (1.0 - prob)
    return EntryLaw("two_atom", np.array([a, b]), np.array([prob, 1.0 - prob]),
                    fourth_finite)


@dataclass(frozen=True, eq=False)
class MatrixEnsemble:
    """n independent d1 x d2 summands (structure 'summand') or one matrix with
    independent entries (structure 'entries'), entries iid from ``law`` times
    the optional per-entry ``scale`` pattern, nonzero where entries live."""

    d1: int
    d2: int
    n: int
    law: EntryLaw
    structure: str = "summand"
    scale: np.ndarray | None = None

    def __post_init__(self):
        if self.structure not in ("summand", "entries"):
            raise InvalidInputError(f"unknown structure {self.structure!r}")
        if self.structure == "entries" and self.n != 1:
            raise InvalidInputError("entrywise ensembles have a single matrix")
        if self.scale is not None:
            s = np.asarray(self.scale, dtype=float)
            if s.shape != (self.d1, self.d2):
                raise InvalidInputError("scale pattern must be d1 x d2")
            object.__setattr__(self, "scale", s)

    @property
    def scale_matrix(self) -> np.ndarray:
        return self.scale if self.scale is not None else np.ones((self.d1, self.d2))

    @property
    def d(self) -> int:
        return min(self.d1, self.d2)

    def entry_count(self) -> int:
        return self.n * self.d1 * self.d2

    def exact_feasible(self) -> bool:
        if not self.law.is_discrete:
            return False
        return len(self.law.atoms) ** self.entry_count() <= EXACT_CONFIG_CAP


def _operator_norms(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _enumerate_stats(ens: MatrixEnsemble, p: float) -> tuple[float, float]:
    """Exact ((E ||sum||^p)^(1/p), (E max_i ||xi_i||^p)^(1/p)) by chunked
    enumeration of every entry configuration."""
    atoms, probs = ens.law.atoms, ens.law.probs
    na = len(atoms)
    m = ens.entry_count()
    total = na ** m
    scale = ens.scale_matrix
    sum_pow = 0.0
    max_pow = 0.0
    digits = na ** np.arange(m)
    for start in range(0, total, _CHUNK):
        idxs = np.arange(start, min(start + _CHUNK, total))
        config = (idxs[:, None] // digits[None, :]) % na
        vals = atoms[config].reshape(-1, ens.n, ens.d1, ens.d2) * scale
        pr = probs[config].prod(axis=1)
        norms = _operator_norms(vals)
        sums = vals.sum(axis=1)
        sum_pow += float((pr * _operator_norms(sums) ** p).sum())
        max_pow += float((pr * norms.max(axis=1) ** p).sum())
    return sum_pow ** (1.0 / p), max_pow ** (1.0 / p)


def _sample_stats(ens: MatrixEnsemble, p: float, n_samples: int, seed: int,
                  stream: int = 0):
    """Monte Carlo ((est, ci), (est, ci)) for the same two statistics."""
    gen = philox(seed, stream)
    vals = ens.law.sample(gen, (n_samples, ens.n, ens.d1, ens.d2)) * ens.scale_matrix
    norms = _operator_norms(vals)
    sums = _operator_norms(vals.sum(axis=1))
    return moment_ci(sums, p), moment_ci(norms.max(axis=1), p)


def _square_terms(ens: MatrixEnsemble) -> tuple[float, float]:
    """Exact operator norms of (sum_i E xi*xi)^(1/2) and the row analogue;
    an entrywise ensemble is one summand, so these are the column and row
    second-moment maxima.

    Independent mean-zero entries make both expectations diagonal."""
    sec = ens.law.abs_moment(2.0) * ens.scale_matrix ** 2
    col_diag = ens.n * sec.sum(axis=0)     # per column of the matrix
    row_diag = ens.n * sec.sum(axis=1)
    return math.sqrt(float(col_diag.max())), math.sqrt(float(row_diag.max()))


def bound_matrix_sum(ens: MatrixEnsemble, p: float, *, n_samples: int = 10_000,
                     seed: int = 0, tolerance: float = 1e-9,
                     force_mc: bool = False) -> CheckReport:
    """Two-sided sum bound with the stated constants; exact or CI-widened."""
    if p < 2:
        raise InvalidInputError("the sum bound needs p >= 2")
    col, row = _square_terms(ens)
    if ens.exact_feasible() and not force_mc:
        lhs, emax = _enumerate_stats(ens, p)
        lhs_ci = emax_ci = 0.0
        mc = False
    else:
        (lhs, lhs_ci), (emax, emax_ci) = _sample_stats(ens, p, n_samples, seed)
        lhs_ci *= 3.0
        emax_ci *= 3.0
        mc = True
    cpd = c_pd(p, ens.d)
    cpd_half = c_pd(p / 2.0, ens.d)
    rhs = 2.0 * (1.0 + math.sqrt(2.0)) * cpd * max(col, row, 2.0 * cpd_half * emax)
    slack = tolerance * max(lhs, rhs, 1.0)
    ok_upper = lhs - lhs_ci <= rhs + (2.0 * (1.0 + math.sqrt(2.0)) * cpd *
                                      2.0 * cpd_half * emax_ci) + slack
    rev = 2.0 ** (1.0 + 1.0 / p)
    ok_rev_max = emax - emax_ci <= rev * (lhs + lhs_ci) + slack
    ok_rev_col = col <= 2.0 * (lhs + lhs_ci) + slack
    ok_rev_row = row <= 2.0 * (lhs + lhs_ci) + slack
    ok = ok_upper and ok_rev_max and ok_rev_col and ok_rev_row
    details = {"column": col, "row": row, "max_term": emax, "C_pd": cpd,
               "C_p2d": cpd_half, "monte_carlo": mc, "lhs_ci": lhs_ci,
               "max_ci": emax_ci, "reverse_constant": rev,
               "law": ens.law.name, "n": ens.n, "d1": ens.d1, "d2": ens.d2}
    return CheckReport("matrix_sum", lhs, rhs, 2.0 * (1.0 + math.sqrt(2.0)) * cpd,
                       EXPLICIT, PASS if ok else FAIL, p=p, q=None,
                       tolerance=tolerance, seed=seed, details=details)


def _entry_max_moment(ens: MatrixEnsemble, p: float, n_samples: int, seed: int):
    """(E max_ij |x_ij|^p)^(1/p): exact via the product CDF for discrete laws."""
    scale = ens.scale_matrix
    if ens.law.is_discrete:
        support = {}
        for (i, j), s in np.ndenumerate(scale):
            for a, pr in zip(ens.law.atoms, ens.law.probs):
                v = abs(a * s)
                support.setdefault((i, j), []).append((v, pr))
        levels = sorted({v for pairs in support.values() for v, _ in pairs})
        cdf_prev = 0.0
        total = 0.0
        for v in levels:
            cdf = 1.0
            for pairs in support.values():
                cdf *= sum(pr for w, pr in pairs if w <= v)
            total += v ** p * (cdf - cdf_prev)
            cdf_prev = cdf
        return total ** (1.0 / p), 0.0
    gen = philox(seed, 77)
    vals = np.abs(ens.law.sample(gen, (n_samples, ens.d1, ens.d2)) * scale)
    return moment_ci(vals.reshape(n_samples, -1).max(axis=1), p)


def bound_entry_matrix(ens: MatrixEnsemble, p: float, *, n_samples: int = 10_000,
                       seed: int = 0, tolerance: float = 1e-9,
                       force_mc: bool = False) -> CheckReport:
    """Entrywise bound: row/column second-moment maxima plus the entry max."""
    if ens.structure != "entries":
        raise InvalidInputError("entry bound needs an entrywise ensemble")
    if p < 2:
        raise InvalidInputError("the entry bound needs p >= 2")
    col, row = _square_terms(ens)
    emax, emax_ci = _entry_max_moment(ens, p, n_samples, seed)
    if ens.exact_feasible() and not force_mc:
        lhs, _ = _enumerate_stats(ens, p)
        lhs_ci = 0.0
        mc = False
    else:
        (lhs, lhs_ci), _ = _sample_stats(ens, p, n_samples, seed, stream=1)
        lhs_ci *= 3.0
        mc = True
    cpd = c_pd(p, ens.d)
    cpd_half = c_pd(p / 2.0, ens.d)
    constant = 2.0 * (1.0 + math.sqrt(2.0)) * cpd
    rhs = constant * max(col, row, 2.0 * cpd_half * emax)
    slack = tolerance * max(lhs, rhs, 1.0)
    ok = lhs - lhs_ci <= rhs + constant * 2.0 * cpd_half * 3.0 * emax_ci + slack
    details = {"column": col, "row": row, "entry_max": emax, "C_pd": cpd,
               "monte_carlo": mc, "lhs_ci": lhs_ci, "law": ens.law.name}
    return CheckReport("matrix_entries", lhs, rhs, constant, EXPLICIT,
                       PASS if ok else FAIL, p=p, q=None, tolerance=tolerance,
                       seed=seed, details=details)


def bound_latala(ens: MatrixEnsemble, p: float, *, n_samples: int = 10_000,
                 seed: int = 0, table: ConstantTable = DEFAULT_TABLE) -> CheckReport:
    """First-moment (and p-th moment) comparison terms of Latala's bound.

    Report-only: the universal constant is unspecified unless configured.
    Laws flagged with an infinite-fourth-moment analogue are inapplicable.
    """
    if ens.structure != "entries":
        raise InvalidInputError("Latala's bound needs an entrywise ensemble")
    if not ens.law.fourth_finite:
        return CheckReport("latala", math.nan, math.nan, math.nan, MEASURED,
                           REPORT_ONLY, p=p, q=None, seed=seed,
                           details={"note": "inapplicable: fourth moment flagged infinite"})
    r_col, r_row = _square_terms(ens)
    fourth = float((ens.law.abs_moment(4.0) * ens.scale_matrix ** 4).sum()) ** 0.25
    base = r_row + r_col + fourth
    if ens.exact_feasible():
        first, _ = _enumerate_stats(ens, 1.0)
        lhs_p, _ = _enumerate_stats(ens, p)
    else:
        (first, _), _ = _sample_stats(ens, 1.0, n_samples, seed, stream=2)
        (lhs_p, _), _ = _sample_stats(ens, p, n_samples, seed, stream=2)
    emax, _ = _entry_max_moment(ens, p, n_samples, seed)
    shape = p / math.log(max(p, 1.0 + 1e-9))
    moment_rhs = shape * (base + emax)
    details = {"first_moment": first, "terms_sum": base, "first_ratio": first / base,
               "moment_ratio": lhs_p / moment_rhs, "fourth_term": fourth,
               "entry_max": emax, "row_term": r_row, "column_term": r_col}
    if table.latala_constant is not None:
        c = table.latala_constant
        ok = first <= c * base and lhs_p <= c * moment_rhs
        return CheckReport("latala", first, base, c, CONFIGURED,
                           PASS if ok else FAIL, p=p, q=None, seed=seed, details=details)
    return CheckReport("latala", first, base, math.nan, MEASURED, REPORT_ONLY,
                       p=p, q=None, seed=seed, details=details)


def seginer_ensemble(a: np.ndarray, p: float, *, n_samples: int = 10_000,
                     seed: int = 0) -> CheckReport:
    """Rank-one signed ensemble x_ij = a_ij e_ij: the measured ratio of the
    sum's moment to the square-function max, with its (log d)^(1/4) reference
    scale.  Report-only; the growth claim is asymptotic."""
    a = np.asarray(a, dtype=float)
    d1, d2 = a.shape
    ens = MatrixEnsemble(d1, d2, 1, rademacher_law(), "entries", a)
    if ens.exact_feasible():
        lhs, _ = _enumerate_stats(ens, p)
        mc = False
    else:
        (lhs, _), _ = _sample_stats(ens, p, n_samples, seed, stream=3)
        mc = True
    base = max(_square_terms(ens))
    d = min(d1, d2)
    ref = math.log(d) ** 0.25 if d >= 2 else 1.0
    ratio = lhs / base if base > 0 else math.nan
    note = ""
    if p > 2.0 * math.log(max(d1, d2, 2)):
        note = "p beyond the stated range; recorded anyway"
    return CheckReport("seginer", lhs, base, math.nan, MEASURED, REPORT_ONLY,
                       p=p, q=None, seed=seed,
                       details={"ratio": ratio, "normalized": ratio / ref,
                                "log_quarter": ref, "monte_carlo": mc, "note": note})
