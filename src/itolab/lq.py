"""Elements of classical and noncommutative L^q at finite dimension.

Two realizations are supported:

  * commutative -- a complex vector over a finite measure space (atoms with
    positive weights), normed by ||f||_q = (sum_s w_s |f(s)|^q)^(1/q);
  * matrix      -- a complex d1 x d2 matrix with the standard trace, normed
    by the Schatten norm ||x||_q = (sum_k sigma_k^q)^(1/q).

q = inf is the sup norm / operator norm.  Everything here is immutable and
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an element or exponent violates a precondition."""


@dataclass(frozen=True, eq=False)
class FiniteMeasureSpace:
    """Finite measure space: distinct atom labels with positive weights."""

    atom_ids: tuple
    weights: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, FiniteMeasureSpace):
            return NotImplemented
        return self.atom_ids == other.atom_ids and np.array_equal(self.weights, other.weights)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atom_ids", tuple(self.atom_ids))
        if len(self.atom_ids) != w.shape[0]:
            raise InvalidInputError("atom_ids and weights length mismatch")
        if len(set(self.atom_ids)) != len(self.atom_ids):
            raise InvalidInputError("atom_ids must be distinct")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InvalidInputError("weights must be strictly positive and finite")

    @property
    def n_atoms(self) -> int:
        return len(self.atom_ids)


def point_space() -> FiniteMeasureSpace:
    """One-atom measure space of weight 1; its L^q elements are scalars for every q."""
    return FiniteMeasureSpace(("*",), np.array([1.0]))


@dataclass(frozen=True, eq=False)
class LqElement:
    """An element of L^q: weighted vector (commutative) or matrix.

    ``values`` is 1-d for the commutative kind (one entry per atom of
    ``space``) and 2-d for the matrix kind (``space`` is None).
    """

    values: np.ndarray
    space: FiniteMeasureSpace | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("entries must be finite")
        if self.space is not None:
            if v.ndim != 1 or v.shape[0] != self.space.n_atoms:
                raise InvalidInputError("commutative element must have one value per atom")
        else:
            if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
                raise InvalidInputError("matrix element must be 2-d with positive dims")
        v.setflags(write=False)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def __mul__(self, c: complex) -> "LqElement":
        return LqElement(self.values * c, self.space)


@dataclass(frozen=True)
class ExponentPair:
    """Moment exponent p and space exponent q, both finite.

    The default range is 1 < p, q < inf; the one-sided results permit
    p = 1 and q = 1, opted in via the flag.
    """

    p: float
    q: float
    allow_one: bool = False

    def __post_init__(self):
        lo = 1.0 if self.allow_one else 1.0 + 1e-12
        if not (lo <= self.p < math.inf and lo <= self.q < math.inf):
            raise InvalidInputError(f"exponents out of range: p={self.p}, q={self.q}")


def conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


# -- batched norm kernels -----------------------------------------------------
#
# These accept values with arbitrary leading axes so exact enumeration over
# probability atoms stays vectorized.  The matrix path follows the Hermitian
# route: eigenvalues of x*x clamped at 0 before the square root.  Each matrix
# is first divided by a power of two near its largest entry, so its Gram
# matrix neither underflows nor overflows, and the singular values are
# multiplied back by it; powers of two scale without rounding.


def singular_values(values: np.ndarray) -> np.ndarray:
    """Singular values (descending) of matrices in the last two axes."""
    x = np.asarray(values, dtype=complex)
    # 2^e > |entries|, 1 if all zero, capped at 2^1023 to stay finite;
    # >= 2^-1021 keeps complex division's 1 / scale finite
    e = np.frexp(np.abs(x).max(axis=(-2, -1)))[1]
    scale = np.ldexp(1.0, np.minimum(e, 1023))[..., None]
    np.maximum(scale, 2.0 ** -1021, out=scale)
    x = x / scale[..., None]
    d1, d2 = x.shape[-2], x.shape[-1]
    if d1 >= d2:
        gram = np.swapaxes(x, -1, -2).conj() @ x
    else:
        gram = x @ np.swapaxes(x, -1, -2).conj()
    eig = np.linalg.eigvalsh(gram)
    eig = np.clip(eig, 0.0, None)
    return np.sqrt(eig[..., ::-1]) * scale


def is_normal(x: np.ndarray | float) -> np.ndarray | bool:
    """x is finite, positive and not subnormal; elementwise on an array."""
    return (x >= np.finfo(float).tiny) & (x < math.inf)


def power_mean(values: np.ndarray, probs: np.ndarray | float, p: float) -> np.ndarray | float:
    """(sum_k probs_k values_k^p)^(1/p) over the last axis of values >= 0, with
    one weight per value or one for all; leading axes are batch, and a 1-d law
    gives a float.  A row whose sum overflows, underflows or is NaN is divided
    by its largest value before the power, so a large p gives a finite mean;
    every other row gets the plain expression's bits."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        total = (probs * values ** p).sum(axis=-1)
        mean = np.asarray(total ** (1.0 / p))
        redo = ~is_normal(total)
        if redo.any():
            top = values.max(axis=-1, initial=0.0)
            redo &= (0 < top) & (top < math.inf)
            top = top[redo]
            mean[redo] = top * (probs * (values[redo] / top[..., None]) ** p).sum(-1) ** (1.0 / p)
    return float(mean) if mean.ndim == 0 else mean


def batch_norm_q(values: np.ndarray, q: float, weights: np.ndarray | None = None) -> np.ndarray:
    """||.||_q over the trailing element axes; leading axes are batch.

    ``weights`` not None selects the commutative kernel (last axis = atoms),
    otherwise the last two axes are matrix dimensions.
    """
    if q < 1:
        raise InvalidInputError("q must be >= 1")
    v = np.asarray(values)
    if weights is not None:
        mods = np.abs(v)
        if math.isinf(q):
            return mods.max(axis=-1, initial=0.0)
        return power_mean(mods, np.asarray(weights, dtype=float), q)
    sv = singular_values(v)
    if math.isinf(q):
        return sv[..., 0]
    return power_mean(sv, 1.0, q)
