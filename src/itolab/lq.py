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

    def __hash__(self):
        return hash((self.atom_ids, self.weights.tobytes()))

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


def uniform_space(n: int, total: float = 1.0) -> FiniteMeasureSpace:
    """n atoms of equal weight total/n."""
    return FiniteMeasureSpace(tuple(range(n)), np.full(n, total / n))


@dataclass(frozen=True, eq=False)
class LqElement:
    """An element of L^q: weighted vector (commutative) or matrix.

    ``values`` is 1-d for the commutative kind (one entry per atom of
    ``space``) and 2-d for the matrix kind (``space`` is None).
    """

    values: np.ndarray
    space: FiniteMeasureSpace | None = None

    def __eq__(self, other):
        if not isinstance(other, LqElement):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.values, other.values)

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
    def kind(self) -> str:
        return "commutative" if self.space is not None else "matrix"

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def __add__(self, other: "LqElement") -> "LqElement":
        _check_compatible(self, other)
        return LqElement(self.values + other.values, self.space)

    def __sub__(self, other: "LqElement") -> "LqElement":
        _check_compatible(self, other)
        return LqElement(self.values - other.values, self.space)

    def __mul__(self, c: complex) -> "LqElement":
        return LqElement(self.values * c, self.space)

    __rmul__ = __mul__

    def __neg__(self) -> "LqElement":
        return LqElement(-self.values, self.space)


def _check_compatible(x: LqElement, y: LqElement):
    if x.kind != y.kind or x.shape != y.shape:
        raise InvalidInputError("elements have mismatched kind or shape")
    if x.kind == "commutative" and x.space is not y.space and x.space != y.space:
        raise InvalidInputError("elements live on different measure spaces")


@dataclass(frozen=True)
class ExponentPair:
    """Moment exponent p and space exponent q, both finite.

    The default range is 1 < p, q < inf; the one-sided results permit
    p = 1 or q = 1, opted in via the flags.
    """

    p: float
    q: float
    allow_p_one: bool = False
    allow_q_one: bool = False

    def __post_init__(self):
        lo_p = 1.0 if self.allow_p_one else 1.0 + 1e-12
        lo_q = 1.0 if self.allow_q_one else 1.0 + 1e-12
        if not (lo_p <= self.p < math.inf and lo_q <= self.q < math.inf):
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


def _power_sum(vals: np.ndarray, weights, q: float) -> np.ndarray:
    if weights is None:
        return (vals ** q).sum(axis=-1)
    return (weights * vals ** q).sum(axis=-1)


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
            return mods.max(axis=-1) if mods.shape[-1] else np.zeros(mods.shape[:-1])
        return _power_sum(mods, np.asarray(weights, dtype=float), q) ** (1.0 / q)
    sv = singular_values(v)
    if math.isinf(q):
        return sv[..., 0]
    return _power_sum(sv, None, q) ** (1.0 / q)


def norm_q(x: LqElement, q: float) -> float:
    """L^q norm of a single element; q = inf gives the operator/sup norm."""
    if x.kind == "commutative":
        return float(batch_norm_q(x.values, q, x.space.weights))
    return float(batch_norm_q(x.values, q))


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Nonincreasing step function t -> value on [b_{k-1}, b_k).

    ``breakpoints`` starts at 0 and is strictly increasing; the function is
    ``values[k]`` on [breakpoints[k], breakpoints[k+1]) and 0 beyond the end.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints[1:], t, side="right")
        out = np.where(idx < len(self.values), self.values[np.minimum(idx, len(self.values) - 1)], 0.0)
        return np.where(t < self.breakpoints[-1], out, 0.0)

    def integral_power(self, q: float) -> float:
        """Exact integral of (step value)^q dt over the support."""
        lengths = np.diff(self.breakpoints)
        return float((self.values ** q * lengths).sum())


def decreasing_rearrangement(x: LqElement) -> StepFunction:
    """Decreasing rearrangement mu_t(x) as an exact step function.

    Matrix kind: the k-th singular value on [k-1, k).  Commutative kind: |f|
    sorted decreasingly, each value carried on an interval of its atom's
    weight.
    """
    if x.kind == "matrix":
        sv = singular_values(x.values)
        bp = np.arange(len(sv) + 1, dtype=float)
        return StepFunction(bp, sv)
    mods = np.abs(x.values)
    order = np.argsort(-mods, kind="stable")
    vals = mods[order]
    lengths = x.space.weights[order]
    bp = np.concatenate([[0.0], np.cumsum(lengths)])
    return StepFunction(bp, vals)


def modulus_square(x: LqElement, side: str = "column") -> LqElement:
    """|x|^2 = x*x (column side) or |x*|^2 = xx* (row side).

    Commutative elements return the pointwise |f|^2 for both sides.
    """
    if side not in ("column", "row"):
        raise InvalidInputError(f"unknown side {side!r}")
    if x.kind == "commutative":
        return LqElement(np.abs(x.values) ** 2, x.space)
    if side == "column":
        return LqElement(x.values.conj().T @ x.values)
    return LqElement(x.values @ x.values.conj().T)


def embed(xs: list[LqElement], layout: str) -> LqElement:
    """Block embedding diag/col/row of same-shaped elements.

    Matrix kind produces the literal block matrix.  Commutative kind realizes
    diag on the disjoint union of copies of the space, and col/row as the
    pointwise square function (sum_i |x_i|^2)^(1/2); either way the norm
    identities ||col(x_i)||_q = ||(sum x_i* x_i)^(1/2)||_q hold exactly.
    """
    if not xs:
        raise InvalidInputError("embed needs at least one element")
    kind = xs[0].kind
    shape = xs[0].shape
    for x in xs[1:]:
        if x.kind != kind or x.shape != shape:
            raise InvalidInputError("mixed kinds or shapes in embed")
    n = len(xs)
    if kind == "matrix":
        d1, d2 = shape
        if layout == "diag":
            out = np.zeros((n * d1, n * d2), dtype=complex)
            for k, x in enumerate(xs):
                out[k * d1:(k + 1) * d1, k * d2:(k + 1) * d2] = x.values
        elif layout == "col":
            out = np.zeros((n * d1, d2), dtype=complex)
            for k, x in enumerate(xs):
                out[k * d1:(k + 1) * d1, :] = x.values
        elif layout == "row":
            out = np.zeros((d1, n * d2), dtype=complex)
            for k, x in enumerate(xs):
                out[:, k * d2:(k + 1) * d2] = x.values
        else:
            raise InvalidInputError(f"unknown layout {layout!r}")
        return LqElement(out)
    sp = xs[0].space
    if layout == "diag":
        ids = tuple((k, a) for k in range(n) for a in sp.atom_ids)
        weights = np.tile(sp.weights, n)
        vals = np.concatenate([x.values for x in xs])
        return LqElement(vals, FiniteMeasureSpace(ids, weights))
    if layout in ("col", "row"):
        sq = np.zeros(sp.n_atoms)
        for x in xs:
            sq += np.abs(x.values) ** 2
        return LqElement(np.sqrt(sq).astype(complex), sp)
    raise InvalidInputError(f"unknown layout {layout!r}")


def pair(x: LqElement, y: LqElement) -> complex:
    """Trace pairing tr(xy); weighted sum of f*g for the commutative kind."""
    if x.kind != y.kind:
        raise InvalidInputError("pairing needs elements of the same kind")
    if x.kind == "commutative":
        if x.space != y.space:
            raise InvalidInputError("pairing needs a common measure space")
        return complex((x.space.weights * x.values * y.values).sum())
    if x.shape[1] != y.shape[0] or x.shape[0] != y.shape[1]:
        raise InvalidInputError("shapes incompatible for tr(xy)")
    return complex(np.trace(x.values @ y.values))


def as_weighted_diagonal(x: LqElement, q: float) -> LqElement:
    """Matrix realization of a commutative element whose Schatten-q norm
    equals the weighted vector norm: diag(w_s^(1/q) f_s) under standard trace."""
    if x.kind != "commutative":
        raise InvalidInputError("expected a commutative element")
    scale = x.space.weights ** (1.0 / q)
    return LqElement(np.diag(scale * x.values))
