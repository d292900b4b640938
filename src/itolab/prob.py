"""Probability engines: exact finite-space expectation and seeded sampling.

Exact enumeration over finite sample spaces is the default oracle; Monte
Carlo (via the counter-based Philox4x64 generator, keyed by seed and stream
id) is the fallback above the atom budget.  Truncated Poisson distributions
renormalize the retained mass onto [0, K] and record both the perturbation
and a certified tail bound for moment series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lq import FiniteMeasureSpace, InvalidInputError, LqElement, batch_norm_q

PROB_TOL = 1e-12
DEFAULT_ATOM_BUDGET = 10 ** 7


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

    def __hash__(self):
        return hash((self.atoms, self.probs.tobytes()))

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

    def expectation(self, values: np.ndarray) -> np.ndarray:
        """E f where values has one row per atom (leading axis)."""
        v = np.asarray(values)
        return np.tensordot(self.probs, v, axes=(0, 0))


@dataclass(frozen=True, eq=False)
class ProductSpace(FiniteProbabilitySpace):
    """Product of independent factors; atoms are tuples of factor labels."""

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
    sizes = [s.n_atoms for s in spaces]
    if total <= 1 << 16:
        grids = np.unravel_index(np.arange(total), sizes)
        atoms = tuple(tuple(s.atoms[g[a]] for s, g in zip(spaces, grids)) for a in range(total))
    else:
        atoms = tuple(range(total))
    return ProductSpace(atoms, probs, tuple(spaces))


def rademacher_space(n: int) -> FiniteProbabilitySpace:
    """All 2^n sign vectors, equiprobable.  n <= 24."""
    if n > 24:
        raise BudgetExceededError(f"2^{n} sign patterns exceed the enumeration budget")
    if n == 0:
        return FiniteProbabilitySpace(((),), np.array([1.0]))
    signs = sign_matrix(n)
    atoms = tuple(tuple(int(s) for s in row) for row in signs)
    return FiniteProbabilitySpace(atoms, np.full(1 << n, 2.0 ** (-n)))


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
    def kind(self) -> str:
        return "commutative" if self.elem_space is not None else "matrix"

    @property
    def elem_shape(self) -> tuple:
        return self.values.shape[1:]

    def mean(self) -> LqElement:
        return LqElement(self.space.expectation(self.values), self.elem_space)

    def __add__(self, other: "RandomLqVariable") -> "RandomLqVariable":
        if self.space is not other.space and self.space != other.space:
            raise InvalidInputError("variables live on different spaces")
        return RandomLqVariable(self.space, self.values + other.values, self.elem_space)

    def __mul__(self, c: complex) -> "RandomLqVariable":
        return RandomLqVariable(self.space, self.values * c, self.elem_space)

    __rmul__ = __mul__

    def lift(self, product: ProductSpace, factor_index: int) -> "RandomLqVariable":
        """View this factor variable as a variable on the product space."""
        idx = product.factor_indices(factor_index)
        return RandomLqVariable(product, self.values[idx], self.elem_space)


def deterministic_variable(space: FiniteProbabilitySpace, x: LqElement) -> RandomLqVariable:
    vals = np.broadcast_to(x.values, (space.n_atoms,) + x.values.shape).copy()
    return RandomLqVariable(space, vals, x.space)


def independent_product(variables: list[RandomLqVariable],
                        budget: int = DEFAULT_ATOM_BUDGET) -> tuple[ProductSpace, list[RandomLqVariable]]:
    """Realize independence: lift each variable onto the product of all spaces."""
    prod = product_space([v.space for v in variables], budget)
    return prod, [v.lift(prod, k) for k, v in enumerate(variables)]


def exact_moment(X: RandomLqVariable, p: float, q: float) -> float:
    """(E ||X||_q^p)^(1/p) by exact enumeration over the atoms."""
    weights = X.elem_space.weights if X.elem_space is not None else None
    norms = batch_norm_q(X.values, q, weights)
    return float((X.space.probs * norms ** p).sum() ** (1.0 / p))


def moment_ci(samples: np.ndarray, p: float) -> tuple[float, float]:
    """Monte Carlo (E X^p)^(1/p) from samples of X >= 0, with the delta-method
    1-sigma half-width: the p-th roots of mean +- standard error of X^p."""
    pw = samples ** p
    n = len(pw)
    if n < 2:
        raise InvalidInputError(f"a moment CI needs at least 2 samples, got {n}")
    m = float(pw.mean())
    sd = float(pw.std(ddof=1)) / math.sqrt(n)
    est = m ** (1.0 / p)
    lo = max(m - sd, 0.0) ** (1.0 / p)
    hi = (m + sd) ** (1.0 / p)
    return est, (hi - lo) / 2.0


# -- Poisson -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TruncatedPoisson:
    """Poisson(lambda) truncated to [0, cutoff], renormalized.

    ``tail_bound`` is the discarded mass; ``renormalized`` records that the
    retained probabilities were rescaled to sum to one.
    """

    lam: float
    cutoff: int
    probs: np.ndarray
    tail_bound: float
    renormalized: bool = True

    def space(self) -> FiniteProbabilitySpace:
        return FiniteProbabilitySpace(tuple(range(self.cutoff + 1)), self.probs)

    def mean(self) -> float:
        return float((np.arange(self.cutoff + 1) * self.probs).sum())


def truncated_poisson(lam: float, eps: float) -> TruncatedPoisson:
    """Minimal cutoff K with tail mass <= eps; probabilities renormalized."""
    if lam < 0:
        raise InvalidInputError("lambda must be nonnegative")
    if not (0 < eps < 1):
        raise InvalidInputError("eps must lie in (0, 1)")
    if lam == 0:
        return TruncatedPoisson(0.0, 0, np.array([1.0]), 0.0, renormalized=False)
    term = math.exp(-lam)
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


def centered_poisson_moment(p: float, lam: float, eps: float = 1e-12,
                            details: bool = False):
    """E|N - lambda|^p for N ~ Poisson(lambda), truncated series.

    The series is summed until a certified bound on the remaining tail drops
    below ``eps``.  The tail is dominated via |k - lam|^p <= k^p for k > lam
    together with a ratio test on k^p * pmf(k).
    """
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    if lam < 0:
        raise InvalidInputError("lambda must be nonnegative")
    if lam == 0:
        return (0.0, {"cutoff": 0, "tail_bound": 0.0}) if details else 0.0
    total = 0.0
    pmf = math.exp(-lam)
    k = 0
    tail_bound = math.inf
    while True:
        total += abs(k - lam) ** p * pmf
        nxt = pmf * lam / (k + 1)
        if k + 1 > lam:
            # ratio of consecutive k^p * pmf(k) terms, decreasing from here on
            ratio = ((k + 2) / (k + 1)) ** p * lam / (k + 2)
            if ratio < 1.0:
                tail_bound = (k + 1) ** p * nxt / (1.0 - ratio)
                if tail_bound <= eps:
                    k += 1
                    break
        pmf = nxt
        k += 1
        if k > 10 ** 6:
            raise RuntimeError("moment series did not converge")
    if details:
        return total, {"cutoff": k, "tail_bound": tail_bound}
    return total


def sample(dist, seed: int, n: int, stream: int = 0) -> np.ndarray:
    """Reproducible draws of atom labels (FiniteProbabilitySpace) or counts
    (TruncatedPoisson).  Identical seed/stream/parameters give identical output."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if isinstance(dist, TruncatedPoisson):
        space = dist.space()
    elif isinstance(dist, FiniteProbabilitySpace):
        space = dist
    else:
        raise InvalidInputError(f"cannot sample from {type(dist).__name__}")
    gen = philox(seed, stream)
    u = gen.random(n)
    cum = np.cumsum(space.probs)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, space.n_atoms - 1)
    atoms = space.atoms
    if atoms and isinstance(atoms[0], (int, np.integer)):
        return np.asarray(atoms, dtype=int)[idx]
    return np.array([atoms[i] for i in idx], dtype=object)
