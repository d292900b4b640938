"""Probability engines: exact finite-space expectation and seeded sampling.

Exact enumeration over finite sample spaces is the default oracle; Monte
Carlo (via the counter-based Philox4x64 generator, keyed by seed and stream
id) is the fallback above the atom budget.  Truncated Poisson distributions
renormalize the retained mass onto [0, K] and record both the perturbation
and a certified tail bound for moment series.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .lq import FiniteMeasureSpace, InvalidInputError, batch_norm_q, is_normal, power_mean

PROB_TOL = 1e-12
DEFAULT_ATOM_BUDGET = 10 ** 7
_LOG_MAX = math.log(sys.float_info.max)


class BudgetExceededError(RuntimeError):
    """Exact enumeration over this space is too large; use the Monte Carlo path."""


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; identical (seed, stream) gives identical draws."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class FiniteProbabilitySpace:
    """Outcome labels with probabilities summing to 1 within 1e-12."""

    atoms: tuple
    probs: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, FiniteProbabilitySpace):
            return NotImplemented
        return self.atoms == other.atoms and np.array_equal(self.probs, other.probs)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(self.atoms) != p.shape[0]:
            raise InvalidInputError("atoms and probs length mismatch")
        if np.any(p < 0) or abs(p.sum() - 1.0) > PROB_TOL:
            raise InvalidInputError("probs must be nonnegative and sum to 1")
        p.setflags(write=False)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True, eq=False)
class ProductSpace(FiniteProbabilitySpace):
    """Product of independent factors; atoms are indices in C order, and
    ``factor_indices`` maps them to the factors' atoms."""

    factors: tuple = ()

    def factor_indices(self, k: int) -> np.ndarray:
        """Per-atom index into factor k (C-order unraveling)."""
        sizes = [f.n_atoms for f in self.factors]
        return np.unravel_index(np.arange(len(self.probs)), sizes)[k]


def product_space(spaces: list[FiniteProbabilitySpace], budget: int = DEFAULT_ATOM_BUDGET) -> ProductSpace:
    """Independent product; errors above the atom budget."""
    total = 1
    for s in spaces:
        total *= s.n_atoms
        if total > budget:
            raise BudgetExceededError(
                f"product space would have {total}+ atoms (> budget {budget}); "
                "use the Monte Carlo path instead")
    probs = np.ones(1)
    for s in spaces:
        probs = np.multiply.outer(probs, s.probs).ravel()
    return ProductSpace(range(total), probs, tuple(spaces))


def sign_matrix(n: int) -> np.ndarray:
    """(2^n, n) array of +-1 patterns in enumeration order."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * bits


@dataclass(frozen=True, eq=False)
class RandomLqVariable:
    """L^q-valued random variable on a finite probability space.

    ``values`` holds one element per atom in the leading axis: shape
    (n_atoms, n_points) for commutative elements over ``elem_space``, or
    (n_atoms, d1, d2) for matrices.
    """

    space: FiniteProbabilitySpace
    values: np.ndarray
    elem_space: FiniteMeasureSpace | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.space.n_atoms:
            raise InvalidInputError("one element per atom required")
        if self.elem_space is not None:
            if v.ndim != 2 or v.shape[1] != self.elem_space.n_atoms:
                raise InvalidInputError("commutative values must be (atoms, points)")
        elif v.ndim != 3:
            raise InvalidInputError("matrix values must be (atoms, d1, d2)")
        v.setflags(write=False)

    @property
    def elem_shape(self) -> tuple:
        return self.values.shape[1:]

    def lift(self, product: ProductSpace, factor_index: int) -> "RandomLqVariable":
        """View this factor variable as a variable on the product space."""
        idx = product.factor_indices(factor_index)
        return RandomLqVariable(product, self.values[idx], self.elem_space)


def independent_product(variables: list[RandomLqVariable]) -> tuple[ProductSpace,
                                                                   list[RandomLqVariable]]:
    """Realize independence: lift each variable onto the product of all spaces."""
    prod = product_space([v.space for v in variables])
    return prod, [v.lift(prod, k) for k, v in enumerate(variables)]


def exact_moment(X: RandomLqVariable, p: float, q: float) -> float:
    """(E ||X||_q^p)^(1/p) by exact enumeration over the atoms."""
    weights = X.elem_space.weights if X.elem_space is not None else None
    return power_mean(batch_norm_q(X.values, q, weights), X.space.probs, p)


def moment_ci(samples: np.ndarray, p: float) -> tuple[float, float]:
    """Monte Carlo (E X^p)^(1/p) from samples of X >= 0, with the delta-method
    1-sigma half-width: the p-th roots of mean +- standard error of X^p.
    Where the mean of X^p overflows, underflows or is NaN, or its deviation
    overflows, X is first divided by its largest sample, as in
    ``power_mean``."""
    n = len(samples)
    if n < 2:
        raise InvalidInputError(f"a moment CI needs at least 2 samples, got {n}")
    top = 1.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        pw = samples ** p
        m, sd = float(pw.mean()), float(pw.std(ddof=1))
        if not (is_normal(m) and sd < math.inf) and 0 < samples.max() < math.inf:
            top = float(samples.max())
            pw = (samples / top) ** p
            m, sd = float(pw.mean()), float(pw.std(ddof=1))
    sd /= math.sqrt(n)
    est = top * m ** (1.0 / p)
    lo = top * max(m - sd, 0.0) ** (1.0 / p)
    hi = top * (m + sd) ** (1.0 / p)
    return est, (hi - lo) / 2.0


def law_moment(values: np.ndarray, probs: np.ndarray | None, p: float) -> tuple[float, float]:
    """(E X^p)^(1/p) of X >= 0 and the half-width a verdict widens by: exact over
    a law with half-width 0, or from draws (``probs`` None) with 3 sigma of ``moment_ci``."""
    if probs is not None:
        return power_mean(values, probs, p), 0.0
    est, half = moment_ci(values, p)
    return est, 3.0 * half


# -- Poisson -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TruncatedPoisson:
    """Poisson(lambda) truncated to [0, cutoff], renormalized.

    ``tail_bound`` is the discarded mass; the retained probabilities are
    rescaled to sum to one.
    """

    lam: float
    cutoff: int
    probs: np.ndarray
    tail_bound: float

    def space(self) -> FiniteProbabilitySpace:
        return FiniteProbabilitySpace(tuple(range(self.cutoff + 1)), self.probs)


def truncated_poisson(lam: float, eps: float) -> TruncatedPoisson:
    """Minimal cutoff K with tail mass <= eps; probabilities renormalized.

    The pmf is built up from exp(-lam); above lam of about 708 that is not a
    normal float, and BudgetExceededError sends the caller to Monte Carlo.
    """
    if lam < 0:
        raise InvalidInputError("lambda must be nonnegative")
    if not (0 < eps < 1):
        raise InvalidInputError("eps must lie in (0, 1)")
    if lam == 0:
        return TruncatedPoisson(0.0, 0, np.array([1.0]), 0.0)
    term = math.exp(-lam)
    if not is_normal(term):
        raise BudgetExceededError(f"Poisson({lam:g}) is too wide to enumerate: its mass "
                                  "at 0 underflows; use the Monte Carlo path instead")
    cum = term
    terms = [term]
    k = 0
    while 1.0 - cum > eps:
        k += 1
        term *= lam / k
        cum += term
        terms.append(term)
        if k > 10 ** 6:
            raise RuntimeError("poisson truncation did not converge")
    probs = np.array(terms) / cum
    return TruncatedPoisson(lam, k, probs, max(1.0 - cum, 0.0))


def _power_times(x: float, p: float, factor: float, log_factor: float) -> float:
    """x^p * factor, as exp(p log x + log factor) where x^p leaves the float
    range; inf where the product does too."""
    try:
        return x ** p * factor
    except OverflowError:
        t = p * math.log(x) + log_factor
        return math.exp(t) if t < _LOG_MAX else math.inf


def centered_poisson_moment(p: float, lam: float, eps: float = 1e-12,
                            details: bool = False):
    """E|N - lambda|^p for N ~ Poisson(lambda), truncated series.

    The series is summed until a certified bound on the remaining tail drops
    below ``eps``.  The tail is dominated via |k - lam|^p <= k^p for k > lam
    together with a ratio test on k^p * pmf(k).  A term whose power leaves
    the float range (from p of about 140 at eps 1e-12) is formed from its
    logarithm, and the moment is inf only where the sum leaves the float
    range itself; its tail bound is then inf too.
    """
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    if lam < 0:
        raise InvalidInputError("lambda must be nonnegative")
    if lam == 0:
        return (0.0, {"cutoff": 0, "tail_bound": 0.0}) if details else 0.0
    p, lam = float(p), float(lam)  # a Python float power raises OverflowError
    total = 0.0
    pmf, log_pmf, log_lam = math.exp(-lam), -lam, math.log(lam)
    k = 0
    tail_bound = math.inf
    while True:
        total += _power_times(abs(k - lam), p, pmf, log_pmf)
        if total == math.inf:
            tail_bound = math.inf
            break
        nxt, log_nxt = pmf * lam / (k + 1), log_pmf + log_lam - math.log(k + 1)
        if k + 1 > lam:
            # ratio of consecutive k^p * pmf(k) terms, decreasing from here on
            ratio = _power_times((k + 2) / (k + 1), p, lam, log_lam) / (k + 2)
            if ratio < 1.0:
                tail_bound = _power_times(k + 1, p, nxt, log_nxt) / (1.0 - ratio)
                if tail_bound <= eps:
                    k += 1
                    break
        pmf, log_pmf = nxt, log_nxt
        k += 1
        if k > 10 ** 6:
            raise RuntimeError("moment series did not converge")
    if details:
        return total, {"cutoff": k, "tail_bound": tail_bound}
    return total


def categorical(gen: np.random.Generator, probs: np.ndarray, shape) -> np.ndarray:
    """Indices into ``probs`` of iid draws by inverse CDF, one uniform each."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.minimum(np.searchsorted(cum, gen.random(shape), side="right"), len(probs) - 1)
