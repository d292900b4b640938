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

Exact enumeration is used when the total entry-configuration count is at
most 2^22, otherwise Monte Carlo with CI-widened thresholds.  Either way an
ensemble's operator-norm law (sum and largest-summand norms per configuration
with its probability, or per draw) is computed once; each moment reduces it
with ``prob.law_moment``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lq import InvalidInputError
from .checks import BOUND_SLACK, ConstantTable, DEFAULT_TABLE, c_pd, relative_slack
from .prob import categorical, law_moment, philox
from .report import (CONFIGURED, EXPLICIT, FAIL, MEASURED, PASS, REPORT_ONLY,
                     CheckReport, ratio)

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
            # an infinite atom makes the mean inf or NaN and the bound inf, and
            # either passes a "mean > bound" test
            if not (np.isfinite(a).all()
                    and abs(float((a * p).sum())) <= 1e-12 * max(1.0, np.abs(a).max())):
                raise InvalidInputError("entry law must have finite atoms and mean zero")
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
            return self.atoms[categorical(gen, self.probs, shape)]
        return gen.standard_normal(shape)


def rademacher_law() -> EntryLaw:
    return EntryLaw("rademacher", np.array([1.0, -1.0]), np.array([0.5, 0.5]))


def gaussian_law() -> EntryLaw:
    return EntryLaw("gaussian")


def two_atom_law(a: float, prob: float, fourth_finite: bool = True) -> EntryLaw:
    """Value a with probability prob, balanced to mean zero; an overflowing
    balancing atom -a prob / (1 - prob) is rejected as not finite."""
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
    top = np.linalg.svd(mats, compute_uv=False)[..., 0]
    return np.where(np.isnan(top), np.inf, top)  # a sum of finite summands overflowed


def _summand_table(ens: MatrixEnsemble, replaced: int) -> np.ndarray | None:
    """Operator norm of each distinct summand of a discrete law by pattern code;
    None for one summand or where it is not smaller than ``replaced``."""
    atoms, k = ens.law.atoms, ens.d1 * ens.d2
    if ens.n == 1 or atoms is None or len(atoms) ** k >= replaced:
        return None
    pattern = (np.arange(len(atoms) ** k)[:, None] // len(atoms) ** np.arange(k)) % len(atoms)
    return _operator_norms(atoms[pattern].reshape(-1, ens.d1, ens.d2) * ens.scale_matrix)


def _law_chunk(ens: MatrixEnsemble, vals: np.ndarray, idx, table) -> tuple:
    """(operator norm of each sum, largest summand norm) of summands ``vals``
    (B, n, d1, d2); a table is read at the pattern codes of atom indices ``idx``."""
    top = _operator_norms(vals.sum(axis=1))
    if ens.n == 1:
        return top, top
    if table is None:
        return top, _operator_norms(vals).max(axis=1)
    place = len(ens.law.atoms) ** np.arange(ens.d1 * ens.d2)
    return top, table[idx.reshape(len(vals), ens.n, -1) @ place].max(axis=1)


_last_law: dict = {}  # content key -> the last law _norm_law built


def _norm_law(ens: MatrixEnsemble, n_samples: int | None = None, seed: int = 0,
              stream: int = 0) -> tuple:
    """(sum operator norms, largest summand norms, probabilities) over every
    entry configuration in enumeration order when ``n_samples`` is None, else
    over draws from Philox (seed, stream) with probabilities None.  Keeps the
    last law built, keyed by what decides it: the shape, the entry law, the
    scale pattern and, when sampled, (n_samples, seed, stream)."""
    law, size = ens.law, (ens.n, ens.d1, ens.d2)
    atoms = None if law.atoms is None else (law.atoms.tobytes(), law.probs.tobytes())
    key = (size, law.name, atoms, ens.scale_matrix.tobytes(),
           None if n_samples is None else (n_samples, seed, stream))
    if key in _last_law:
        return _last_law[key]
    _last_law.clear()
    batch = len(law.atoms) ** ens.entry_count() if n_samples is None else n_samples
    table = _summand_table(ens, batch * ens.n)
    if n_samples is None:
        na = len(law.atoms)
        digits = na ** np.arange(ens.entry_count())
        top, emax, probs = np.empty(batch), np.empty(batch), np.empty(batch)
        for start in range(0, batch, _CHUNK):
            part = slice(start, min(start + _CHUNK, batch))
            config = (np.arange(part.start, part.stop)[:, None] // digits) % na
            vals = law.atoms[config].reshape(-1, *size) * ens.scale_matrix
            top[part], emax[part] = _law_chunk(ens, vals, config, table)
            probs[part] = law.probs[config].prod(axis=1)
    else:
        gen, shape = philox(seed, stream), (n_samples, *size)
        idx = None if table is None else categorical(gen, law.probs, shape)
        vals = (law.sample(gen, shape) if idx is None else law.atoms[idx]) * ens.scale_matrix
        (top, emax), probs = _law_chunk(ens, vals, idx, table), None
    _last_law[key] = top, emax, probs
    return top, emax, probs


def _moments(ens: MatrixEnsemble, p: float, n_samples: int, seed: int, stream: int,
             exact: bool = True):
    """((sum moment, 3-sigma CI), (max-summand moment, 3-sigma CI), Monte
    Carlo?): exact where allowed and feasible, else from Philox (seed, stream)."""
    mc = not (exact and ens.exact_feasible())
    top, largest, probs = _norm_law(ens, n_samples if mc else None, seed, stream)
    return law_moment(top, probs, p), law_moment(largest, probs, p), mc


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
                     seed: int = 0, force_mc: bool = False) -> CheckReport:
    """Two-sided sum bound with the stated constants; exact or CI-widened."""
    if p < 2:
        raise InvalidInputError("the sum bound needs p >= 2")
    col, row = _square_terms(ens)
    (lhs, lhs_ci), (emax, emax_ci), mc = _moments(ens, p, n_samples, seed, 0, not force_mc)
    cpd = c_pd(p, ens.d)
    cpd_half = c_pd(p / 2.0, ens.d)
    rhs = 2.0 * (1.0 + math.sqrt(2.0)) * cpd * max(col, row, 2.0 * cpd_half * emax)
    rev = 2.0 ** (1.0 + 1.0 / p)
    details = {"column": col, "row": row, "max_term": emax, "C_pd": cpd,
               "C_p2d": cpd_half, "monte_carlo": mc, "lhs_ci": lhs_ci,
               "max_ci": emax_ci, "reverse_constant": rev,
               "law": ens.law.name, "n": ens.n, "d1": ens.d1, "d2": ens.d2}
    slack = relative_slack(BOUND_SLACK, details, lhs, rhs, floor=1.0)
    ok_upper = lhs - lhs_ci <= rhs + (2.0 * (1.0 + math.sqrt(2.0)) * cpd *
                                      2.0 * cpd_half * emax_ci) + slack
    ok_rev_max = emax - emax_ci <= rev * (lhs + lhs_ci) + slack
    ok_rev_square = max(col, row) <= 2.0 * (lhs + lhs_ci) + slack
    ok = ok_upper and ok_rev_max and ok_rev_square
    return CheckReport("matrix_sum", lhs, rhs, 2.0 * (1.0 + math.sqrt(2.0)) * cpd,
                       EXPLICIT, PASS if ok else FAIL, p=p, q=None,
                       tolerance=BOUND_SLACK, details=details)


def _entry_max_moment(ens: MatrixEnsemble, p: float, n_samples: int, seed: int):
    """((E max_ij |x_ij|^p)^(1/p), 3-sigma CI): exact by the product CDF if discrete."""
    scale = ens.scale_matrix
    if ens.law.is_discrete:
        support = [[(abs(a * s), pr) for a, pr in zip(ens.law.atoms, ens.law.probs)]
                   for s in scale.flat]
        values = np.array(sorted({v for pairs in support for v, _ in pairs}))
        cdf = [math.prod(sum(pr for w, pr in pairs if w <= v) for pairs in support)
               for v in values]
        return law_moment(values, np.diff(cdf, prepend=0.0), p)
    gen = philox(seed, 77)
    vals = np.abs(ens.law.sample(gen, (n_samples, ens.d1, ens.d2)) * scale)
    return law_moment(vals.reshape(n_samples, -1).max(axis=1), None, p)


def bound_entry_matrix(ens: MatrixEnsemble, p: float, *, n_samples: int = 10_000,
                       seed: int = 0, force_mc: bool = False) -> CheckReport:
    """Entrywise bound: row/column second-moment maxima plus the entry max."""
    if ens.structure != "entries":
        raise InvalidInputError("entry bound needs an entrywise ensemble")
    if p < 2:
        raise InvalidInputError("the entry bound needs p >= 2")
    col, row = _square_terms(ens)
    emax, emax_ci = _entry_max_moment(ens, p, n_samples, seed)
    (lhs, lhs_ci), _, mc = _moments(ens, p, n_samples, seed, 1, not force_mc)
    cpd = c_pd(p, ens.d)
    cpd_half = c_pd(p / 2.0, ens.d)
    constant = 2.0 * (1.0 + math.sqrt(2.0)) * cpd
    rhs = constant * max(col, row, 2.0 * cpd_half * emax)
    details = {"column": col, "row": row, "entry_max": emax, "C_pd": cpd,
               "monte_carlo": mc, "lhs_ci": lhs_ci, "law": ens.law.name}
    slack = relative_slack(BOUND_SLACK, details, lhs, rhs, floor=1.0)
    ok = lhs - lhs_ci <= rhs + constant * 2.0 * cpd_half * emax_ci + slack
    return CheckReport("matrix_entries", lhs, rhs, constant, EXPLICIT,
                       PASS if ok else FAIL, p=p, q=None, tolerance=BOUND_SLACK,
                       details=details)


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
                           REPORT_ONLY, p=p, q=None,
                           details={"note": "inapplicable: fourth moment flagged infinite"})
    r_col, r_row = _square_terms(ens)
    fourth = float((ens.law.abs_moment(4.0) * ens.scale_matrix ** 4).sum()) ** 0.25
    base = r_row + r_col + fourth
    (first, first_ci), _, _ = _moments(ens, 1.0, n_samples, seed, 2)
    (lhs_p, lhs_ci), _, _ = _moments(ens, p, n_samples, seed, 2)
    emax, emax_ci = _entry_max_moment(ens, p, n_samples, seed)
    shape = p / math.log(max(p, 1.0 + 1e-9))
    moment_rhs = shape * (base + emax)
    details = {"first_moment": first, "terms_sum": base,
               "first_ratio": ratio(first, base), "moment_ratio": ratio(lhs_p, moment_rhs),
               "fourth_term": fourth, "entry_max": emax, "row_term": r_row, "column_term": r_col}
    if table.latala_constant is not None:
        # sampled sides are widened by their 3-sigma CIs, as in bound_matrix_sum
        c = table.latala_constant
        ok = (first - first_ci <= c * base
              and lhs_p - lhs_ci <= c * (shape * (base + emax + emax_ci)))
        return CheckReport("latala", first, base, c, CONFIGURED,
                           PASS if ok else FAIL, p=p, q=None, details=details)
    return CheckReport("latala", first, base, math.nan, MEASURED, REPORT_ONLY,
                       p=p, q=None, details=details)


def seginer_ensemble(a: np.ndarray, p: float, *, n_samples: int = 10_000,
                     seed: int = 0) -> CheckReport:
    """Rank-one signed ensemble x_ij = a_ij e_ij: the measured ratio of the
    sum's moment to the square-function max, with its (log d)^(1/4) reference
    scale.  Report-only; the growth claim is asymptotic."""
    a = np.asarray(a, dtype=float)
    d1, d2 = a.shape
    ens = MatrixEnsemble(d1, d2, 1, rademacher_law(), "entries", a)
    (lhs, _), _, mc = _moments(ens, p, n_samples, seed, 3)
    base = max(_square_terms(ens))
    d = min(d1, d2)
    ref = math.log(d) ** 0.25 if d >= 2 else 1.0
    r = ratio(lhs, base)
    note = ("p beyond the stated range; recorded anyway"
            if p > 2.0 * math.log(max(d1, d2, 2)) else "")
    return CheckReport("seginer", lhs, base, math.nan, MEASURED, REPORT_ONLY,
                       p=p, q=None,
                       details={"ratio": r, "normalized": r / ref,
                                "log_quarter": ref, "monte_carlo": mc, "note": note})
