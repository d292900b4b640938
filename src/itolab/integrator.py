"""Simple adapted processes and the compensated Poisson stochastic integral.

A simple adapted process is a finite tensor form over the cells of a grid
partition: on cell (i, j) it takes a value y_ij that may depend only on the
counts of cells with earlier time index (adaptedness is structural: the
coefficient callback is handed exactly those counts).  Its integral over the
whole grid is the finite sum

    sum_ij y_ij * (N_ij - lam_ij),

and the running integral up to a breakpoint is the same sum over the
intervals before it.

Every integral goes through two helpers.  ``_coefficient_table`` evaluates
the coefficients against cell counts with one column per outcome (the atoms
of the product space, or sampled paths), calling each adapted coefficient
once per distinct pattern of earlier-cell counts.  ``_running_sums`` runs the
sum over the grid's time-major cells and yields it at the end of each time
interval, which is all Doob's running maximum needs.

Exact mode represents the sample space as the product of truncated-Poisson
cell spaces, which makes moments, martingale properties, and the decoupling
identities exact up to the recorded truncation tail.  The decoupled integral
replaces the integrator field by an independent copy living on a second
factor of the product space.

Process norms: with y cellwise constant, the squared L^2(time x marks)
integral collapses to sum_ij |y_ij|^2 lam_ij, so

    S:     ( E || (sum_ij lam_ij |y_ij|^2)^(1/2) ||_q^p )^(1/p)
    D_qq:  ( E ( sum_ij lam_ij ||y_ij||_q^q )^(p/q) )^(1/p)
    D_pq:  ( sum_ij lam_ij E ||y_ij||_q^p )^(1/p)

and the regime composite combines them with max / infimal-sum connectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lq import FiniteMeasureSpace, InvalidInputError, LqElement, batch_norm_q
from .normfuncs import norm_atom
from .poisson import GridPartition
from .prob import (ProductSpace, RandomLqVariable, law_moment, philox, product_space,
                   truncated_poisson)
from .seqnorms import evaluate_tree, regime_select

DEFAULT_EXACT_BUDGET = 200_000


@dataclass(eq=False)
class SimpleAdaptedProcess:
    """Tensor-form process: coefficient per cell, adapted to the grid filtration.

    ``coefficients`` maps (i, j) to either an LqElement (deterministic) or a
    callable taking {(i', j'): count for i' < i} and returning an LqElement.
    Cells without an entry carry the zero coefficient.
    """

    grid: GridPartition
    coefficients: dict
    elem_space: FiniteMeasureSpace | None = None
    elem_shape: tuple = ()

    def __post_init__(self):
        for (i, j) in self.coefficients:
            if not (0 <= i < self.grid.n_intervals and 0 <= j < self.grid.n_marks):
                raise InvalidInputError(f"cell {(i, j)} outside the grid")
        for v in self.coefficients.values():
            if isinstance(v, LqElement):
                if v.space != self.elem_space or v.shape != tuple(self.elem_shape):
                    raise InvalidInputError("coefficient element mismatch")

    @property
    def is_deterministic(self) -> bool:
        return all(isinstance(v, LqElement) for v in self.coefficients.values())

    def scaled(self, factor: complex) -> "SimpleAdaptedProcess":
        """factor times a deterministic process."""
        coeff = {key: c * factor for key, c in self.coefficients.items()}
        return SimpleAdaptedProcess(self.grid, coeff, self.elem_space, tuple(self.elem_shape))

    def max_abs(self) -> float:
        m = 0.0
        for c in self.coefficients.values():
            if isinstance(c, LqElement):
                m = max(m, float(np.abs(c.values).max()))
        return m


def deterministic_process(grid: GridPartition, cells: dict, elem_space=None,
                          shape: tuple | None = None) -> SimpleAdaptedProcess:
    """Process from a {(i, j): array} table of deterministic values.

    ``shape`` is the value shape, by default (atoms,) of ``elem_space`` or,
    for a matrix element, that of the cells; a table without cells is the
    zero process.
    """
    coeff = {key: LqElement(np.asarray(arr, dtype=complex), elem_space)
             for key, arr in cells.items()}
    if shape is None and elem_space is not None:
        shape = (elem_space.n_atoms,)
    elif shape is None:
        if not coeff:
            raise InvalidInputError("a matrix process without cells needs its shape")
        shape = next(iter(coeff.values())).shape
    return SimpleAdaptedProcess(grid, coeff, elem_space, tuple(shape))


def _coefficient_table(F: SimpleAdaptedProcess, cells: list, counts: np.ndarray) -> np.ndarray:
    """Coefficients (cells, columns, *elem) of the time-major ``cells``, with
    ``counts`` holding one row per cell and one column per outcome.

    An adapted coefficient is called once per distinct pattern of
    earlier-cell counts among the columns.
    """
    y = np.zeros((len(cells), counts.shape[1]) + tuple(F.elem_shape), dtype=complex)
    for k, (i, j) in enumerate(cells):
        c = F.coefficients.get((i, j))
        if c is None:
            continue
        if isinstance(c, LqElement):
            y[k] = c.values
            continue
        earlier = [kk for kk, (ii, _) in enumerate(cells) if ii < i]
        if not earlier:
            y[k] = c({}).values
            continue
        _, inverse = np.unique(counts[earlier].T, axis=0, return_inverse=True)
        for pat_id in np.unique(inverse):
            sel = np.nonzero(inverse == pat_id)[0]
            y[k, sel] = c({cells[kk]: int(counts[kk, sel[0]]) for kk in earlier}).values
    return y


def _running_sums(grid: GridPartition, y: np.ndarray, counts: np.ndarray):
    """The integral sum_k y_k (N_k - lam_k) over the grid's time-major cells,
    per column, yielded at the end of each time interval."""
    lam = grid.intensities
    total = np.zeros(counts.shape[1:] + y.shape[2:], dtype=complex)
    for i in range(grid.n_intervals):
        for j in range(grid.n_marks):
            k = i * grid.n_marks + j
            comp = counts[k] - lam[i, j]
            total = total + y[k] * comp.reshape(comp.shape + (1,) * (y.ndim - 2))
        yield total


# -- exact mode ----------------------------------------------------------------


@dataclass(eq=False)
class ExactModel:
    """Product-space representation of the field (and optionally a copy).

    Cells are ordered time-major.  ``counts`` has one row per cell and one
    column per atom of the product space; ``y`` holds the coefficient value
    per cell and atom.  When built decoupled the space is Omega x Omega_c and
    ``counts_c`` carries the independent copy's counts.
    """

    process: SimpleAdaptedProcess
    space: ProductSpace
    counts: np.ndarray
    y: np.ndarray
    truncation_tail: float
    counts_c: np.ndarray | None = None


def build_exact_model(F: SimpleAdaptedProcess, eps: float = 1e-10,
                      budget: int = DEFAULT_EXACT_BUDGET,
                      decoupled: bool = False) -> ExactModel:
    """Materialize the process on the product of truncated-Poisson cell spaces."""
    grid = F.grid
    cell_order = grid.cells()
    lam = grid.intensities
    tps = [truncated_poisson(float(lam[i, j]), eps) for (i, j) in cell_order]
    spaces = [tp.space() for tp in tps]
    if decoupled:
        spaces = spaces + spaces
    prod = product_space(spaces, budget)
    counts = np.array([np.asarray(s.atoms)[prod.factor_indices(k)]
                       for k, s in enumerate(spaces)], dtype=int)
    n_cells = len(cell_order)
    counts, counts_c = counts[:n_cells], (counts[n_cells:] if decoupled else None)
    y = _coefficient_table(F, cell_order, counts)
    tail = sum(tp.tail_bound for tp in tps)
    return ExactModel(F, prod, counts, y, tail, counts_c)


def integrate_exact(model: ExactModel, use_copy: bool = False) -> RandomLqVariable:
    """The integral over the whole grid as an exact random variable."""
    counts = model.counts_c if use_copy else model.counts
    if use_copy and counts is None:
        raise InvalidInputError("model was built without a decoupled copy")
    for total in _running_sums(model.process.grid, model.y, counts):
        pass
    return RandomLqVariable(model.space, total, model.process.elem_space)


# -- sampled paths -------------------------------------------------------------


def sample_paths(F: SimpleAdaptedProcess, q: float, n_samples: int, seed: int,
                 stream: int = 0):
    """Norms of the integral at every breakpoint, per sampled path.

    Returns an (n_samples, n_intervals) array of ||integral over (0, s]||_q
    for the breakpoints s.  The path is a step function in s, so these are
    the only values the running supremum can take.
    """
    grid = F.grid
    lam = grid.intensities
    counts = philox(seed, stream).poisson(lam, size=(n_samples,) + lam.shape)
    counts = counts.reshape(n_samples, -1).T
    # a deterministic table is one column, broadcast over the paths
    y = _coefficient_table(F, grid.cells(), counts[:, :1] if F.is_deterministic else counts)
    weights = F.elem_space.weights if F.elem_space is not None else None
    return np.stack([batch_norm_q(total, q, weights)
                     for total in _running_sums(grid, y, counts)], axis=1)


def running_max_moment(F: SimpleAdaptedProcess, p: float, q: float,
                       n_samples: int, seed: int) -> tuple:
    """Monte Carlo (E sup_s ||int_(0,s]||_q^p)^(1/p) and the terminal moment,
    each with its 3-sigma CI half-width, from the same paths.

    The supremum runs over grid breakpoints, which is exact because the
    integral path is a step function in s.
    """
    norms = sample_paths(F, q, n_samples, seed)
    return law_moment(norms.max(axis=1), None, p), law_moment(norms[:, -1], None, p)


# -- process norms -------------------------------------------------------------


def _process_tables(F: SimpleAdaptedProcess, model: ExactModel | None):
    """(time-major lam vector, probs, y table (cells, atoms, *elem)); an
    adapted process without ``model`` is materialized at the defaults of
    ``build_exact_model``."""
    grid = F.grid
    lam = grid.intensities.ravel()
    if F.is_deterministic:
        cells = grid.cells()
        return lam, np.ones(1), _coefficient_table(F, cells, np.zeros((len(cells), 1), dtype=int))
    if model is None:
        model = build_exact_model(F)
    return lam, model.space.probs, model.y


def process_norm(F: SimpleAdaptedProcess, p: float, q: float, *,
                 model: ExactModel | None = None, restarts: int = 8, max_iter: int = 5000,
                 seed: int = 0):
    """The regime composite process norm over the whole grid, an upper bound.

    An adapted process without ``model`` is materialized at truncation eps
    1e-10 and the default budget.  Sums are optimized decompositions of the
    coefficient table.
    """
    if not F.grid.is_refined:
        raise InvalidInputError("every cell intensity must be at most 1")
    lam, probs, y = _process_tables(F, model)
    weights = F.elem_space.weights if F.elem_space is not None else None
    spec = regime_select(p, q, "commutative" if F.elem_space is not None else "noncommutative")
    return evaluate_tree(spec.tree, lambda name: norm_atom(name, p, q, probs, weights, lam), y,
                         restarts=restarts, max_iter=max_iter, seed=seed)[0]
