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
true infimum.  The tests check them against an independent grid oracle on
low-dimensional instances (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lq import ExponentPair, FiniteMeasureSpace, InvalidInputError, LqElement
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
    """|| (sum_i E |f_i|^2)^(1/2) ||_q, exact expectation; |x|^2 = x*x on the
    column side and xx* on the row side."""
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
    tree: NormExpr


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
    return RegimeSpec(case, p, q, tree)


# -- composite evaluation ------------------------------------------------------


@dataclass(eq=False)
class CompositeResult:
    value: float
    node_values: dict


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


def evaluate_tree(tree: NormExpr, atom, table: np.ndarray, *,
                  restarts: int, max_iter: int, seed: int):
    """Value of a regime tree on a coefficient table, atoms built by
    ``atom(name)``.  Intersections are exact maxima; sums are optimized
    decompositions (upper bounds on the infimum).

    Returns (value, {node label: value}).
    """
    node_values: dict = {}

    def eval_node(node: NormExpr) -> float:
        if node.op == "atom":
            v = atom(node.name).value(table)
        elif node.op == "max":
            v = max(eval_node(c) for c in node.children)
        else:
            funcs = [node_functional(c, atom) for c in node.children]
            v = minimize_decomposition(table, funcs, restarts=restarts, max_iter=max_iter,
                                       seed=seed).value
        node_values[node.label()] = v
        return v

    return eval_node(tree), node_values


def composite_norm(seq: LqSequence, spec: RegimeSpec, *,
                   restarts: int = 8, max_iter: int = 5000, seed: int = 0) -> CompositeResult:
    """Evaluate the regime tree on the sequence (see ``evaluate_tree``); sums
    are optimizer upper bounds whose restarts stop at ``sumopt.REL_TOL``."""
    return CompositeResult(*evaluate_tree(
        spec.tree, lambda name: sequence_atom(name, seq, spec.p, spec.q), seq.values,
        restarts=restarts, max_iter=max_iter, seed=seed))


def square_sum_norm(seq: LqSequence, q: float, *, restarts: int = 8,
                    max_iter: int = 5000, seed: int = 0) -> float:
    """The S_c + S_r decomposition infimum (its optimizer upper bound for
    matrices, see ``composite_norm``); commutative sequences have S_c = S_r,
    and the infimum is S_c itself.  p does not enter the sequence S atoms."""
    if seq.kind == "commutative":
        return norm_S(seq, q, "column")
    spec = RegimeSpec(0, 2.0, q, _sum(_atom("S_c"), _atom("S_r")))
    return composite_norm(seq, spec, restarts=restarts, max_iter=max_iter,
                          seed=seed).value
