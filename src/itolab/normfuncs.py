"""Convex norm functionals on tables of L^q elements, with subgradients.

A table stacks elements along leading axes: sequence norms see
(items, atoms, *elem), process norms see (cells, atoms, *elem).  Each
functional defines only ``value_grad``, which takes a batch of tables with a
leading batch axis, (B, *table), so the optimizer advances all of its
restarts in one call per iteration; ``value`` of one table is the same call
on a batch of one.  Gradients use the convention df = Re <g, dU> on the
complex entries, which is the plain steepest-descent gradient in the
underlying real coordinates; a row whose value is 0 gets a zero gradient.

Two families.  A sequence is the process whose cells are its items, each
with lam = 1.

  S (kernel ``_square_function``):
    SeqS      ||(f_i)||_S     = || (sum_i E |f_i|^2)^(1/2) ||_q
    ProcS     ||F||           = ( E || (sum_c lam_c |y_c|^2)^(1/2) ||_q^p )^(1/p)
  D (kernel ``_elem_norm_grads``: weighted modulus or singular values):
    SeqD      ||(f_i)||_D     = ( sum_i E ||f_i||_q^p )^(1/p)      (ProcDpq, lam = 1)
    ProcDqq   ||F||           = ( E ( sum_c lam_c ||y_c||_q^q )^(p/q) )^(1/p)
    ProcDpq   ||F||           = ( sum_c lam_c E ||y_c||_q^p )^(1/p)

|.|^2 is x*x on the column side, xx* on the row side, and the pointwise
modulus squared in the commutative case.  ``norm_atom`` builds the
functional of one regime-tree atom.

Per-row outer powers go through ``np.float_power``, which rounds like the
scalar ``pow`` of a single table; the vectorised ``**`` loop can differ in
the last bit, and a batched row would then drift from the same table
evaluated alone.
"""

from __future__ import annotations

import numpy as np

from .lq import InvalidInputError
from .sumopt import NormFunctional, per_row

_EIG_FLOOR = 1e-30


def _elem_norm_grads(U: np.ndarray, q: float, weights) -> tuple[np.ndarray, np.ndarray]:
    """Batched (norms, gradients) of the element norm over trailing axes."""
    if weights is not None:
        mods = np.abs(U)
        vals = (weights * mods ** q).sum(axis=-1) ** (1.0 / q)
        # |x|^(q-2) x, with 0 at x = 0 (valid subgradient for q >= 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = weights * (np.where(mods > 0, mods ** (q - 2.0), 0.0) * U)
    else:
        u, s, vh = np.linalg.svd(U, full_matrices=False)
        vals = (s ** q).sum(axis=-1) ** (1.0 / q)
        g = (u * (s ** (q - 1.0))[..., None, :]) @ vh
    safe = np.where(vals > 0, vals, 1.0)
    return vals, _nonzero_rows(vals, g * per_row(safe ** (1.0 - q), U.ndim))


def _outer(val: np.ndarray, p: float, ndim: int) -> np.ndarray:
    """val^(1-p) per row (1 on rows of value 0), the outer factor of every
    power-mean gradient, shaped to broadcast over ``ndim`` axes."""
    return per_row(np.float_power(np.where(val > 0, val, 1.0), 1.0 - p), ndim)


def _nonzero_rows(val: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.where(per_row(val > 0, g.ndim), g, 0.0)


def _clamped_power(eig: np.ndarray, q: float) -> np.ndarray:
    """eig^(q/2-1) over the last axis, eig clamped away from 0 so the q < 2
    case stays finite (inexact subgradient near the nondifferentiable
    boundary, harmless for subgradient descent)."""
    floor = np.maximum(eig.max(axis=-1, keepdims=True) * 1e-15, _EIG_FLOOR)
    return np.maximum(eig, floor) ** (q / 2.0 - 1.0)


def _square_function(U, contract: str, coef, q: float, side: str, weights):
    """The square function M = sum coef |U|^2 over the table axes that the
    einsum ``contract`` sums ("a,...ia->..." sums items and atoms): the
    weighted modulus in the commutative case, the Gram matrix on ``side`` for
    matrices.  Returns the power sum tr M^(q/2) = ||M^(1/2)||_q^q and the
    gradient core M^(q/2-1), times the weights or as V diag(l^(q/2-1)) V*."""
    ins, out = contract.split("->")
    if weights is not None:
        M = np.einsum(f"{ins}x->{out}x", coef, np.abs(U) ** 2)
        return (weights * M ** (q / 2.0)).sum(axis=-1), weights * _clamped_power(M, q)
    Uh = np.swapaxes(U, -1, -2).conj()
    gram = Uh @ U if side == "column" else U @ Uh
    eig, vec = np.linalg.eigh(np.einsum(f"{ins}xy->{out}xy", coef, gram))
    eig = np.clip(eig, 0.0, None)
    core = (vec * _clamped_power(eig, q)[..., None, :]) @ np.swapaxes(vec, -1, -2).conj()
    return (eig ** (q / 2.0)).sum(axis=-1), core


def _apply_core(coef, core, U, side: str, weights):
    """coef * core applied to U, the core broadcast over the contracted axes:
    the gradient of the power sum, up to the outer power mean."""
    core = core.reshape(core.shape[:1] + (1,) * (U.ndim - core.ndim) + core.shape[1:])
    if weights is not None:
        return coef * core * U
    return coef * (U @ core if side == "column" else core @ U)


class SeqS(NormFunctional):
    """Square-function norm of a sequence: ||(sum_i E |f_i|^2)^(1/2)||_q."""

    def __init__(self, q: float, side: str, probs: np.ndarray, weights=None):
        self.q, self.side, self.probs, self.weights = q, side, np.asarray(probs), weights

    def value_grad(self, U):
        pw, core = _square_function(U, "a,...ia->...", self.probs, self.q, self.side,
                                    self.weights)
        val = np.float_power(pw, 1.0 / self.q)
        coef = _outer(val, self.q, U.ndim) * per_row(self.probs, U.ndim - 2)
        return val, _nonzero_rows(val, _apply_core(coef, core, U, self.side, self.weights))


class ProcS(NormFunctional):
    """(E || (sum_c lam_c |y_c|^2)^(1/2) ||_q^p)^(1/p) on a process table."""

    def __init__(self, p: float, q: float, side: str, lam: np.ndarray,
                 probs: np.ndarray, weights=None):
        self.p, self.q, self.side = p, q, side
        self.lam, self.probs, self.weights = np.asarray(lam), np.asarray(probs), weights

    def value_grad(self, U):
        p, q = self.p, self.q
        pw, core = _square_function(U, "c,...ca->...a", self.lam, q, self.side, self.weights)
        b = pw ** (1.0 / q)
        val = np.float_power((self.probs * b ** p).sum(axis=-1), 1.0 / p)
        safe_b = np.where(b > 0, b, 1.0)
        outer = _outer(val, p, 2) * self.probs * b ** (p - 1.0)   # dval/db per atom
        inner = np.where(b > 0, outer * safe_b ** (1.0 - q), 0.0)
        coef = per_row(inner[:, None], U.ndim) * per_row(self.lam, U.ndim - 1)
        return val, _nonzero_rows(val, _apply_core(coef, core, U, self.side, self.weights))


class ProcDqq(NormFunctional):
    """(E (sum_c lam_c ||y_c||_q^q)^(p/q))^(1/p) on a process table."""

    def __init__(self, p: float, q: float, lam: np.ndarray, probs: np.ndarray, weights=None):
        self.p, self.q = p, q
        self.lam, self.probs, self.weights = np.asarray(lam), np.asarray(probs), weights

    def value_grad(self, U):
        p, q = self.p, self.q
        a, ga = _elem_norm_grads(U, self.q, self.weights)
        inner = (self.lam[:, None] * a ** q).sum(axis=1)
        val = np.float_power((self.probs * inner ** (p / q)).sum(axis=-1), 1.0 / p)
        safe = np.where(inner > 0, inner, 1.0)
        datom = np.where(inner > 0,
                         _outer(val, p, 2) * self.probs * safe ** (p / q - 1.0), 0.0)
        coef = datom[:, None, :] * self.lam[:, None] * a ** (q - 1.0)
        return val, _nonzero_rows(val, per_row(coef, U.ndim) * ga)


class ProcDpq(NormFunctional):
    """(sum_c lam_c E ||y_c||_q^p)^(1/p) on a process table."""

    def __init__(self, p: float, q: float, lam: np.ndarray, probs: np.ndarray, weights=None):
        self.p, self.q = p, q
        self.lam, self.probs, self.weights = np.asarray(lam), np.asarray(probs), weights

    def value_grad(self, U):
        p = self.p
        a, ga = _elem_norm_grads(U, self.q, self.weights)
        # each row summed over all of its entries, in the order of a flat sum()
        pw = (self.lam[:, None] * self.probs[None, :] * a ** p).reshape(len(a), -1).sum(axis=1)
        val = np.float_power(pw, 1.0 / p)
        coef = (_outer(val, p, 3) * self.lam[:, None] * self.probs[None, :]
                * a ** (p - 1.0))
        return val, _nonzero_rows(val, per_row(coef, U.ndim) * ga)


class SeqD(ProcDpq):
    """(sum_i E ||f_i||_q^p)^(1/p) on a sequence table: ProcDpq with lam = 1.
    Multiplying by 1 is exact, so every product rounds as in the sequence
    formula itself."""

    def __init__(self, p: float, q: float, probs: np.ndarray, weights=None):
        super().__init__(p, q, np.ones(1), probs, weights)

    value_grad = ProcDpq.value_grad   # its own binding, so traces count it apart


def norm_atom(name: str, p: float, q: float, probs: np.ndarray, weights,
              lam: np.ndarray | None = None) -> NormFunctional:
    """The functional of one regime-tree atom (S, S_c, S_r, D_qq or D_pq):
    the sequence norm when ``lam`` is None, else the process norm with cell
    intensities ``lam``."""
    side = {"S": "column", "S_c": "column", "S_r": "row"}.get(name)
    if side is not None:
        return (SeqS(q, side, probs, weights) if lam is None
                else ProcS(p, q, side, lam, probs, weights))
    if name not in ("D_qq", "D_pq"):
        raise InvalidInputError(f"unknown norm atom {name!r}")
    if lam is None:
        return SeqD(q if name == "D_qq" else p, q, probs, weights)
    return (ProcDqq if name == "D_qq" else ProcDpq)(p, q, lam, probs, weights)
