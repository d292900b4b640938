"""Convex norm functionals on tables of L^q elements, with subgradients.

A table stacks elements along leading axes: sequence norms see
(items, atoms, *elem), process norms see (cells, atoms, *elem).  ``value``
takes one table; ``value_grad`` takes a batch of tables with a leading batch
axis, (B, *table), so the optimizer advances all of its restarts in one call
per iteration.  Gradients use the convention df = Re <g, dU> on the complex
entries, which is the plain steepest-descent gradient in the underlying real
coordinates; a row whose value is 0 gets a zero gradient.

Functionals:

  SeqS      ||(f_i)||_S     = || (sum_i E |f_i|^2)^(1/2) ||_q
  SeqD      ||(f_i)||_D     = ( sum_i E ||f_i||_q^p )^(1/p)
  ProcS     ||F||           = ( E || (sum_c lam_c |y_c|^2)^(1/2) ||_q^p )^(1/p)
  ProcDqq   ||F||           = ( E ( sum_c lam_c ||y_c||_q^q )^(p/q) )^(1/p)
  ProcDpq   ||F||           = ( sum_c lam_c E ||y_c||_q^p )^(1/p)

|.|^2 is x*x on the column side, xx* on the row side, and the pointwise
modulus squared in the commutative case.

Per-row outer powers go through ``np.float_power``, which rounds like the
scalar ``pow`` of a single table; the vectorised ``**`` loop can differ in
the last bit, and a batched row would then drift from the same table
evaluated alone.
"""

from __future__ import annotations

import numpy as np

from .lq import batch_norm_q
from .sumopt import NormFunctional, per_row

_EIG_FLOOR = 1e-30


def _elem_norms(U: np.ndarray, q: float, weights) -> np.ndarray:
    return batch_norm_q(U, q, weights)


def _elem_norm_grads(U: np.ndarray, q: float, weights) -> tuple[np.ndarray, np.ndarray]:
    """Batched (norms, gradients) of the element norm over trailing axes."""
    if weights is not None:
        mods = np.abs(U)
        pw = (weights * mods ** q).sum(axis=-1)
        vals = pw ** (1.0 / q)
        safe = np.where(vals > 0, vals, 1.0)
        # |x|^(q-2) x, with 0 at x = 0 (valid subgradient for q >= 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            core = np.where(mods > 0, mods ** (q - 2.0), 0.0) * U
        g = weights * core * (safe ** (1.0 - q))[..., None]
        g = np.where(vals[..., None] > 0, g, 0.0)
        return vals, g
    u, s, vh = np.linalg.svd(U, full_matrices=False)
    vals = (s ** q).sum(axis=-1) ** (1.0 / q)
    safe = np.where(vals > 0, vals, 1.0)
    core = s ** (q - 1.0)
    g = (u * core[..., None, :]) @ vh * (safe ** (1.0 - q))[..., None, None]
    g = np.where(vals[..., None, None] > 0, g, 0.0)
    return vals, g


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each row over all of its entries, in the order of a flat ``sum()``."""
    return x.reshape(len(x), -1).sum(axis=1)


def _outer(val: np.ndarray, p: float, ndim: int) -> np.ndarray:
    """val^(1-p) per row (1 on rows of value 0), the outer factor of every
    power-mean gradient, shaped to broadcast over ``ndim`` axes."""
    return per_row(np.float_power(np.where(val > 0, val, 1.0), 1.0 - p), ndim)


def _nonzero_rows(val: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.where(per_row(val > 0, g.ndim), g, 0.0)


def _gram(U: np.ndarray, side: str) -> np.ndarray:
    if side == "column":
        return np.swapaxes(U, -1, -2).conj() @ U
    return U @ np.swapaxes(U, -1, -2).conj()


def _psd_halfpower(M: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """For PSD M: the power sum tr M^(q/2) = ||M^(1/2)||_q^q and the factor
    V diag(l^(q/2-1)) V*.

    The factor enters every S-norm gradient; eigenvalues are clamped away
    from 0 so the q < 2 case stays finite (inexact subgradient near the
    nondifferentiable boundary, harmless for subgradient descent).
    """
    eig, vec = np.linalg.eigh(M)
    eig = np.clip(eig, 0.0, None)
    top = eig.max(axis=-1, keepdims=True)
    floor = np.maximum(top * 1e-15, _EIG_FLOOR)
    pw = (eig ** (q / 2.0)).sum(axis=-1)
    eig_safe = np.maximum(eig, floor)
    core = eig_safe ** (q / 2.0 - 1.0)
    fac = (vec * core[..., None, :]) @ np.swapaxes(vec, -1, -2).conj()
    return pw, fac


class SeqS(NormFunctional):
    """Square-function norm of a sequence: ||(sum_i E |f_i|^2)^(1/2)||_q."""

    def __init__(self, q: float, side: str, probs: np.ndarray, weights=None):
        self.q, self.side, self.probs, self.weights = q, side, np.asarray(probs), weights

    def _second_moment(self, U):
        if self.weights is not None:
            return np.einsum("a,...iax->...x", self.probs, np.abs(U) ** 2)
        return np.einsum("a,...iaxy->...xy", self.probs, _gram(U, self.side))

    def value(self, U):
        M = self._second_moment(U)
        if self.weights is not None:
            return float((self.weights * M ** (self.q / 2.0)).sum() ** (1.0 / self.q))
        pw, _ = _psd_halfpower(M, self.q)
        return float(pw ** (1.0 / self.q))

    def value_grad(self, U):
        q = self.q
        M = self._second_moment(U)
        if self.weights is not None:
            val = np.float_power((self.weights * M ** (q / 2.0)).sum(axis=-1), 1.0 / q)
            floor = np.maximum(M.max(axis=-1, keepdims=True) * 1e-15, _EIG_FLOOR)
            core = self.weights * np.maximum(M, floor) ** (q / 2.0 - 1.0)
            g = _outer(val, q, 4) * self.probs[:, None] * core[:, None, None, :] * U
            return val, _nonzero_rows(val, g)
        pw, fac = _psd_halfpower(M, q)
        val = np.float_power(pw, 1.0 / q)
        fac = fac[:, None, None]
        prod = U @ fac if self.side == "column" else fac @ U
        g = _outer(val, q, 5) * self.probs[:, None, None] * prod
        return val, _nonzero_rows(val, g)


class SeqD(NormFunctional):
    """(sum_i E ||f_i||_q^p)^(1/p) on a sequence table."""

    def __init__(self, p: float, q: float, probs: np.ndarray, weights=None):
        self.p, self.q, self.probs, self.weights = p, q, np.asarray(probs), weights

    def value(self, U):
        a = _elem_norms(U, self.q, self.weights)
        return float((self.probs * a ** self.p).sum() ** (1.0 / self.p))

    def value_grad(self, U):
        p = self.p
        a, ga = _elem_norm_grads(U, self.q, self.weights)
        val = np.float_power(_row_sum(self.probs * a ** p), 1.0 / p)
        coef = _outer(val, p, 3) * self.probs * a ** (p - 1.0)
        return val, _nonzero_rows(val, per_row(coef, U.ndim) * ga)


class ProcS(NormFunctional):
    """(E || (sum_c lam_c |y_c|^2)^(1/2) ||_q^p)^(1/p) on a process table."""

    def __init__(self, p: float, q: float, side: str, lam: np.ndarray,
                 probs: np.ndarray, weights=None):
        self.p, self.q, self.side = p, q, side
        self.lam, self.probs, self.weights = np.asarray(lam), np.asarray(probs), weights

    def _per_atom(self, U):
        if self.weights is not None:
            m = np.einsum("c,...cax->...ax", self.lam, np.abs(U) ** 2)
            b = (self.weights * m ** (self.q / 2.0)).sum(axis=-1) ** (1.0 / self.q)
            return b, m
        M = np.einsum("c,...caxy->...axy", self.lam, _gram(U, self.side))
        pw, fac = _psd_halfpower(M, self.q)
        return pw ** (1.0 / self.q), fac

    def value(self, U):
        b, _ = self._per_atom(U)
        return float((self.probs * b ** self.p).sum() ** (1.0 / self.p))

    def value_grad(self, U):
        p, q = self.p, self.q
        b, aux = self._per_atom(U)
        val = np.float_power((self.probs * b ** p).sum(axis=-1), 1.0 / p)
        safe_b = np.where(b > 0, b, 1.0)
        outer = _outer(val, p, 2) * self.probs * b ** (p - 1.0)   # dval/db per atom
        inner = np.where(b > 0, outer * safe_b ** (1.0 - q), 0.0)
        if self.weights is not None:
            m = aux
            floor = np.maximum(m.max(axis=-1, keepdims=True) * 1e-15, _EIG_FLOOR)
            core = self.weights * np.maximum(m, floor) ** (q / 2.0 - 1.0)
            g = inner[:, None, :, None] * self.lam[:, None, None] * core[:, None] * U
            return val, _nonzero_rows(val, g)
        fac = aux[:, None]
        scaled = inner[:, None, :, None, None] * self.lam[:, None, None, None]
        prod = U @ fac if self.side == "column" else fac @ U
        return val, _nonzero_rows(val, scaled * prod)


class ProcDqq(NormFunctional):
    """(E (sum_c lam_c ||y_c||_q^q)^(p/q))^(1/p) on a process table."""

    def __init__(self, p: float, q: float, lam: np.ndarray, probs: np.ndarray, weights=None):
        self.p, self.q = p, q
        self.lam, self.probs, self.weights = np.asarray(lam), np.asarray(probs), weights

    def value(self, U):
        a = _elem_norms(U, self.q, self.weights)
        inner = (self.lam[:, None] * a ** self.q).sum(axis=0)
        return float((self.probs * inner ** (self.p / self.q)).sum() ** (1.0 / self.p))

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

    def value(self, U):
        a = _elem_norms(U, self.q, self.weights)
        return float((self.lam[:, None] * self.probs[None, :] * a ** self.p).sum() ** (1.0 / self.p))

    def value_grad(self, U):
        p = self.p
        a, ga = _elem_norm_grads(U, self.q, self.weights)
        val = np.float_power(_row_sum(self.lam[:, None] * self.probs[None, :] * a ** p), 1.0 / p)
        coef = (_outer(val, p, 3) * self.lam[:, None] * self.probs[None, :]
                * a ** (p - 1.0))
        return val, _nonzero_rows(val, per_row(coef, U.ndim) * ga)
