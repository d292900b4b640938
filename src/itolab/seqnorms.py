"""Sequence norms for independent L^q-valued random variables.

For a finite sequence (f_i) on a common finite probability space:

    S_{q,c}:  || (sum_i E f_i* f_i)^(1/2) ||_q        (column square function)
    S_{q,r}:  || (sum_i E f_i f_i*)^(1/2) ||_q        (row square function)
    S_q:      the common value of both in the commutative case
    D_{p,q}:  ( sum_i E ||f_i||_q^p )^(1/p)

A moment exponent p and space exponent q select one of six regimes, each a
composite of these built from intersection (max) and sum (infimal
convolution) connectives.  Sum values are computed by convex optimization
and certified by the achieving decomposition; they are upper bounds on the
true infimum.  ``brute_force_sum_norm`` is an independent grid oracle for
low-dimensional instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lq import (ExponentPair, FiniteMeasureSpace, InvalidInputError, LqElement,
                 batch_norm_q, conjugate_exponent)
from .normfuncs import norm_atom
from .prob import FiniteProbabilitySpace, RandomLqVariable
from .sumopt import MaxFunctional, NormFunctional, minimize_decomposition


@dataclass(frozen=True, eq=False)
class LqSequence:
    """Finite sequence of L^q-valued variables sharing one probability space.

    ``values`` has shape (n_items, n_atoms, *elem).
    """

    space: FiniteProbabilitySpace
    values: np.ndarray
    elem_space: FiniteMeasureSpace | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.ndim < 2 or v.shape[1] != self.space.n_atoms:
            raise InvalidInputError("values must be (items, atoms, *elem)")
        if self.elem_space is not None and (v.ndim != 3 or v.shape[2] != self.elem_space.n_atoms):
            raise InvalidInputError("commutative values must be (items, atoms, points)")
        if self.elem_space is None and v.ndim != 4:
            raise InvalidInputError("matrix values must be (items, atoms, d1, d2)")
        v.setflags(write=False)

    @property
    def kind(self) -> str:
        return "commutative" if self.elem_space is not None else "matrix"

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    def sum_variable(self) -> RandomLqVariable:
        return RandomLqVariable(self.space, self.values.sum(axis=0), self.elem_space)

    def scaled(self, c: complex) -> "LqSequence":
        return LqSequence(self.space, self.values * c, self.elem_space)

    @staticmethod
    def from_variables(variables: list[RandomLqVariable]) -> "LqSequence":
        space = variables[0].space
        elem_space = variables[0].elem_space
        for v in variables[1:]:
            if v.space is not space and v.space != space:
                raise InvalidInputError("items must share one probability space")
            if v.elem_space != elem_space or v.elem_shape != variables[0].elem_shape:
                raise InvalidInputError("items must share element kind and shape")
        return LqSequence(space, np.stack([v.values for v in variables]), elem_space)

    @staticmethod
    def deterministic(xs: list[LqElement]) -> "LqSequence":
        """Deterministic elements as a sequence on the trivial one-atom space."""
        space = FiniteProbabilitySpace(("*",), np.array([1.0]))
        vals = np.stack([x.values for x in xs])[:, None, ...]
        return LqSequence(space, vals, xs[0].space)


def norm_S(seq: LqSequence, q: float, side: str = "column") -> float:
    """|| (sum_i E modulus_square(f_i, side))^(1/2) ||_q, exact expectation."""
    if side not in ("column", "row"):
        raise InvalidInputError(f"unknown side {side!r}")
    return sequence_atom("S_c" if side == "column" else "S_r", seq, q, q).value(seq.values)


def norm_D(seq: LqSequence, p: float, q: float) -> float:
    """( sum_i E ||f_i||_q^p )^(1/p)."""
    return sequence_atom("D_pq", seq, p, q).value(seq.values)


# -- regime selection ----------------------------------------------------------


@dataclass(frozen=True)
class NormExpr:
    """Expression tree over norm atoms with max (intersection) and sum nodes."""

    op: str                       # 'atom' | 'max' | 'sum'
    name: str | None = None       # atom name when op == 'atom'
    children: tuple = ()

    def label(self) -> str:
        if self.op == "atom":
            return self.name
        sep = " & " if self.op == "max" else " + "
        return "(" + sep.join(c.label() for c in self.children) + ")"


def _atom(name):
    return NormExpr("atom", name)


def _max(*children):
    return NormExpr("max", None, tuple(children))


def _sum(*children):
    return NormExpr("sum", None, tuple(children))


@dataclass(frozen=True)
class RegimeSpec:
    """One of the six (p, q) regimes and its composite-norm expression tree."""

    case_id: int
    p: float
    q: float
    mode: str
    tree: NormExpr

    def label(self) -> str:
        return f"case{self.case_id}:{self.tree.label()}"


def regime_select(p: float, q: float, mode: str = "commutative") -> RegimeSpec:
    """The unique applicable regime; boundary ties take the first case in order.

    At overlapping boundaries (p = 2, q = 2, p = q) all applicable cases give
    the same value, which the suite checks at p = q = 2.
    """
    ExponentPair(p, q)
    if mode not in ("commutative", "noncommutative"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode == "commutative":
        S = [_atom("S")]
    else:
        S = [_atom("S_c"), _atom("S_r")]
    dqq, dpq = _atom("D_qq"), _atom("D_pq")
    if 2 <= q <= p:
        case, tree = 1, _max(*S, dqq, dpq)
    elif 2 <= p <= q:
        case, tree = 2, _max(*S, _sum(dqq, dpq))
    elif p < 2 <= q:
        case, tree = 3, _sum(_max(*S, dqq), dpq)
    elif q < 2 <= p:
        case, tree = 4, _max(_sum(*S, dqq), dpq)
    elif q <= p <= 2:
        case, tree = 5, _sum(*S, _max(dqq, dpq))
    else:
        case, tree = 6, _sum(*S, dqq, dpq)
    return RegimeSpec(case, p, q, mode, tree)


# -- composite evaluation ------------------------------------------------------


@dataclass(eq=False)
class Decomposition:
    """Parts of a sum-norm decomposition, summing itemwise to the target."""

    target: LqSequence
    parts: list[LqSequence]
    labels: tuple

    def residual(self) -> float:
        total = sum(p.values for p in self.parts)
        scale = max(float(np.abs(self.target.values).max()), 1e-300)
        return float(np.abs(total - self.target.values).max()) / scale

    def validate(self, tol: float = 1e-9):
        if self.residual() > tol:
            raise InvalidInputError("decomposition does not reconstruct the target")


@dataclass(eq=False)
class CompositeResult:
    value: float
    certificate: Decomposition | None
    node_values: dict = field(default_factory=dict)


def sequence_atom(name: str, seq: LqSequence, p: float, q: float) -> NormFunctional:
    """The sequence norm of one atom of a regime tree."""
    weights = seq.elem_space.weights if seq.elem_space is not None else None
    return norm_atom(name, p, q, seq.space.probs, weights)


def node_functional(node: NormExpr, atom) -> NormFunctional:
    """Functional of an atom or max node, with atoms built by ``atom(name)``."""
    if node.op == "atom":
        return atom(node.name)
    if node.op == "max":
        return MaxFunctional([node_functional(c, atom) for c in node.children])
    raise InvalidInputError("sum nodes cannot be nested inside sum children")


def evaluate_tree(tree: NormExpr, atom, table: np.ndarray, tol: float, *,
                  restarts: int, max_iter: int, seed: int):
    """Value of a regime tree on a coefficient table, atoms built by
    ``atom(name)``.  Intersections are exact maxima; sums are optimized
    decompositions (upper bounds on the infimum).

    Returns (value, {node label: value}, [(sum node, DecompositionResult)]
    in evaluation order).
    """
    rel_tol = min(1e-7, tol / 10.0)
    node_values: dict = {}
    sums: list = []

    def eval_node(node: NormExpr) -> float:
        if node.op == "atom":
            v = atom(node.name).value(table)
        elif node.op == "max":
            v = max(eval_node(c) for c in node.children)
        else:
            funcs = [node_functional(c, atom) for c in node.children]
            res = minimize_decomposition(table, funcs, restarts=restarts,
                                         max_iter=max_iter, rel_tol=rel_tol, seed=seed)
            sums.append((node, res))
            v = res.value
        node_values[node.label()] = v
        return v

    return eval_node(tree), node_values, sums


def composite_norm(seq: LqSequence, spec: RegimeSpec, tol: float = 1e-6, *,
                   restarts: int = 8, max_iter: int = 5000, seed: int = 0) -> CompositeResult:
    """Evaluate the regime tree on the sequence (see ``evaluate_tree``); sums
    come within ``tol`` relative of the brute-force oracle on small
    instances.  The first sum's decomposition is the certificate."""
    value, node_values, sums = evaluate_tree(
        spec.tree, lambda name: sequence_atom(name, seq, spec.p, spec.q), seq.values,
        tol, restarts=restarts, max_iter=max_iter, seed=seed)
    cert = None
    if sums:
        node, res = sums[0]
        parts = [LqSequence(seq.space, part, seq.elem_space) for part in res.parts]
        cert = Decomposition(seq, parts, tuple(c.label() for c in node.children))
        cert.validate()
    return CompositeResult(value, cert, node_values)


# -- brute-force oracle --------------------------------------------------------
#
# Direct re-implementations of the norms (no shared gradient machinery), plus
# an exhaustive multilevel grid over decompositions.  The objective is convex,
# so zooming the grid around the incumbent (expanding when it sits on the box
# boundary) converges to the global infimum.


def _direct_atom(name: str, table: np.ndarray, seq: LqSequence, p: float, q: float) -> np.ndarray:
    """Norm of candidate tables, batched over a leading candidates axis.

    ``table`` has shape (B, items, atoms, *elem).
    """
    probs = seq.space.probs
    weights = seq.elem_space.weights if seq.elem_space is not None else None
    if name in ("S", "S_c", "S_r"):
        if weights is not None:
            m = np.einsum("a,biax->bx", probs, np.abs(table) ** 2)
            return (weights * m ** (q / 2.0)).sum(axis=-1) ** (1.0 / q)
        if name == "S_r":
            gram = table @ np.swapaxes(table, -1, -2).conj()
        else:
            gram = np.swapaxes(table, -1, -2).conj() @ table
        M = np.einsum("a,biaxy->bxy", probs, gram)
        eig = np.clip(np.linalg.eigvalsh(M), 0.0, None)
        return (eig ** (q / 2.0)).sum(axis=-1) ** (1.0 / q)
    pe = q if name == "D_qq" else p
    a = batch_norm_q(table, q, weights)
    return np.einsum("a,bia->b", probs, a ** pe) ** (1.0 / pe)


def _direct_node(node: NormExpr, table, seq, p, q) -> np.ndarray:
    if node.op == "atom":
        return _direct_atom(node.name, table, seq, p, q)
    if node.op == "max":
        return np.max([_direct_node(c, table, seq, p, q) for c in node.children], axis=0)
    raise InvalidInputError("nested sum inside sum is not supported")


def _coordinate_bounds(node: NormExpr, seq: LqSequence, p, q, ub: float) -> np.ndarray:
    """Per-coordinate box half-widths |x_c| <= ub / N(e_c) for monotone norms."""
    flat = seq.values.reshape(-1)
    bounds = np.empty(flat.shape[0])
    for c in range(flat.shape[0]):
        e = np.zeros_like(seq.values)
        e.reshape(-1)[c] = 1.0
        n = float(_direct_node(node, e[None, ...], seq, p, q)[0])
        bounds[c] = ub / n if n > 0 else ub
    return bounds


def brute_force_sum_norm(seq: LqSequence, spec: RegimeSpec,
                         grid_resolution: int = 13, levels: int = 10,
                         dim_cap: int = 4) -> float:
    """Grid oracle for the regime value, real low-dimensional instances only."""
    if float(np.abs(seq.values.imag).max()) > 0:
        raise InvalidInputError("brute-force oracle handles real-valued instances only")

    def eval_node(node: NormExpr) -> float:
        if node.op == "atom":
            return float(_direct_node(node, seq.values[None, ...], seq, spec.p, spec.q)[0])
        if node.op == "max":
            return max(eval_node(c) for c in node.children)
        return _grid_sum(node)

    def _grid_sum(node: NormExpr) -> float:
        k = len(node.children)
        flat_dim = seq.values.size
        free = (k - 1) * flat_dim
        if free > dim_cap:
            raise InvalidInputError(
                f"total free dimension {free} exceeds the brute-force cap {dim_cap}")
        corner_vals = [float(_direct_node(c, seq.values[None, ...], seq, spec.p, spec.q)[0])
                       for c in node.children]
        ub = min(corner_vals)
        if ub == 0.0:
            return 0.0
        half = np.concatenate([
            _coordinate_bounds(node.children[j], seq, spec.p, spec.q, ub)
            for j in range(k - 1)])
        lo, hi = -half.copy(), half.copy()

        def cost(points: np.ndarray) -> np.ndarray:
            B = points.shape[0]
            parts = points.reshape(B, k - 1, *seq.values.shape).astype(complex)
            last = seq.values[None, ...] - parts.sum(axis=1)
            total = np.zeros(B)
            for j in range(k - 1):
                total += _direct_node(node.children[j], parts[:, j], seq, spec.p, spec.q)
            total += _direct_node(node.children[-1], last, seq, spec.p, spec.q)
            return total

        m = grid_resolution
        best_v, best_x = ub, None
        for _ in range(levels):
            axes = [np.linspace(lo[d], hi[d], m) for d in range(free)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([g.ravel() for g in mesh], axis=-1)
            vals = cost(pts)
            i = int(np.argmin(vals))
            if vals[i] < best_v:
                best_v, best_x = float(vals[i]), pts[i]
            x_star = pts[i]
            cell = (hi - lo) / (m - 1)
            new_lo, new_hi = np.empty(free), np.empty(free)
            for d in range(free):
                if math.isclose(x_star[d], lo[d]) or math.isclose(x_star[d], hi[d]):
                    width = hi[d] - lo[d]
                    new_lo[d] = x_star[d] - width
                    new_hi[d] = x_star[d] + width
                else:
                    new_lo[d] = x_star[d] - 1.5 * cell[d]
                    new_hi[d] = x_star[d] + 1.5 * cell[d]
            lo, hi = new_lo, new_hi
        return best_v

    return eval_node(spec.tree)


# -- duality -------------------------------------------------------------------


def sequence_pairing(f: LqSequence, g: LqSequence) -> complex:
    """<(f_i), (g_i)> = sum_i E tr(f_i g_i) (weighted integral when commutative)."""
    if f.kind != g.kind or f.n_items != g.n_items:
        raise InvalidInputError("sequences incompatible for pairing")
    probs = f.space.probs
    if f.kind == "commutative":
        if f.elem_space != g.elem_space:
            raise InvalidInputError("pairing needs a common measure space")
        w = f.elem_space.weights
        return complex(np.einsum("a,s,ias,ias->", probs, w, f.values, g.values))
    if f.values.shape[3] != g.values.shape[2] or f.values.shape[2] != g.values.shape[3]:
        raise InvalidInputError("shapes incompatible for tr(fg)")
    prod = f.values @ g.values
    return complex(np.einsum("a,iaxx->", probs, prod))


def duality_gap(f: LqSequence, g: LqSequence, p: float, q: float, *,
                tol: float = 1e-3, restarts: int = 2, max_iter: int = 300,
                seed: int = 0) -> dict:
    """Pairing vs the product of dual regime norms; ratio <= 1 + tol must hold."""
    pairing = sequence_pairing(f, g)
    mode = "commutative" if f.kind == "commutative" else "noncommutative"
    spec = regime_select(p, q, mode)
    spec_dual = regime_select(conjugate_exponent(p), conjugate_exponent(q), mode)
    nf = composite_norm(f, spec, tol, restarts=restarts, max_iter=max_iter, seed=seed).value
    ng = composite_norm(g, spec_dual, tol, restarts=restarts, max_iter=max_iter, seed=seed).value
    bound = nf * ng
    ratio = abs(pairing) / bound if bound > 0 else (0.0 if abs(pairing) == 0 else math.inf)
    return {"pairing": pairing, "bound": bound, "ratio": ratio,
            "norm_f": nf, "norm_g": ng}
