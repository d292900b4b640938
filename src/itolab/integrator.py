"""Simple adapted processes and the compensated Poisson stochastic integral.

A simple adapted process is a finite tensor form over the cells of a grid
partition: on cell (i, j) it takes a value y_ij that may depend only on the
counts of cells with earlier time index (adaptedness is structural: the
coefficient callback is handed exactly those counts).  The integral over
(0, t] x B is the finite sum

    sum_{cells in the window} y_ij * (N_ij - lam_ij),

piecewise constant in t between breakpoints.

Every integral goes through two helpers.  ``_coefficient_table`` evaluates
the coefficients against cell counts with one column per outcome (the atoms
of the product space, or sampled paths), calling each adapted coefficient
once per distinct pattern of earlier-cell counts.  ``_window_sums`` runs the
sum over (0, t] x B with lam_ij = clip * nu_j and yields it at the end of
each time interval.  Both routes take t at a breakpoint and snap it to the
breakpoint it matches; the process norms clip the last cell at any t.

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

import math
from dataclasses import dataclass

import numpy as np

from .lq import FiniteMeasureSpace, InvalidInputError, LqElement, batch_norm_q
from .normfuncs import norm_atom
from .poisson import GridPartition
from .prob import (ProductSpace, RandomLqVariable, moment_ci, philox, product_space,
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
        out = {}
        for key, c in self.coefficients.items():
            if isinstance(c, LqElement):
                out[key] = c * factor
            else:
                out[key] = (lambda cb, _c=c: _c(cb) * factor)
        return SimpleAdaptedProcess(self.grid, out, self.elem_space, tuple(self.elem_shape))

    def max_abs(self) -> float:
        m = 0.0
        for c in self.coefficients.values():
            if isinstance(c, LqElement):
                m = max(m, float(np.abs(c.values).max()))
        return m


def deterministic_process(grid: GridPartition, cells: dict,
                          elem_space=None) -> SimpleAdaptedProcess:
    """Process from a {(i, j): array} table of deterministic values."""
    coeff = {}
    shape = None
    for key, arr in cells.items():
        x = LqElement(np.asarray(arr, dtype=complex), elem_space)
        coeff[key] = x
        shape = x.shape
    return SimpleAdaptedProcess(grid, coeff, elem_space, shape or ())


def _window_cells(grid: GridPartition, t: float, B) -> list[list[tuple[int, float]]]:
    """Per time interval meeting (0, t]: (time-major cell index, clipped
    intensity clip * nu_j) of each of its cells with a mark in B."""
    marks = range(grid.n_marks) if B is None else sorted(grid.mark_index(b) for b in B)
    out = []
    for i in range(grid.n_intervals):
        a = grid.time_points[i]
        if t <= a:
            break
        clip = min(grid.time_points[i + 1], t) - a
        out.append([(i * grid.n_marks + j, clip * grid.j_measures[j]) for j in marks])
    return out


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


def _window_sums(windows: list, y: np.ndarray, counts: np.ndarray):
    """The integral sum_k y_k (N_k - lam_k) over the window, per column,
    yielded at the end of each interval of ``windows``."""
    total = np.zeros(counts.shape[1:] + y.shape[2:], dtype=complex)
    for interval in windows:
        for k, lam in interval:
            comp = counts[k] - lam
            total = total + y[k] * comp.reshape(comp.shape + (1,) * (y.ndim - 2))
        yield total


def _breakpoint(grid: GridPartition, t: float) -> float:
    """The grid breakpoint t is close to."""
    for tp in grid.time_points[1:]:
        if math.isclose(t, tp):
            return float(tp)
    raise InvalidInputError("exact and sampled integrals take t at a grid breakpoint")


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
    cell_order: list
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
    return ExactModel(F, prod, cell_order, counts, y, tail, counts_c)


def integrate_exact(model: ExactModel, t: float, B=None,
                    use_copy: bool = False) -> RandomLqVariable:
    """The integral as an exact random variable; t must be a breakpoint."""
    grid = model.process.grid
    t = _breakpoint(grid, t)
    counts = model.counts_c if use_copy else model.counts
    if use_copy and counts is None:
        raise InvalidInputError("model was built without a decoupled copy")
    for total in _window_sums(_window_cells(grid, t, B), model.y, counts):
        pass
    return RandomLqVariable(model.space, total, model.process.elem_space)


# -- sampled paths -------------------------------------------------------------


def sample_paths(F: SimpleAdaptedProcess, t: float, B, q: float,
                 n_samples: int, seed: int, stream: int = 0):
    """Norms of the integral at every breakpoint <= t, per sampled path.

    Returns an (n_samples, n_prefixes) array of ||integral over (0, s]||_q
    for the breakpoints s.  The path is a step function in s, so these are
    the only values the running supremum can take.
    """
    grid = F.grid
    windows = _window_cells(grid, _breakpoint(grid, t), B)
    lam = grid.intensities
    counts = philox(seed, stream).poisson(lam, size=(n_samples,) + lam.shape)
    counts = counts.reshape(n_samples, -1).T[:len(windows) * grid.n_marks]
    # a deterministic table is one column, broadcast over the paths
    y = _coefficient_table(F, grid.cells()[:len(counts)],
                           counts[:, :1] if F.is_deterministic else counts)
    weights = F.elem_space.weights if F.elem_space is not None else None
    return np.stack([batch_norm_q(total, q, weights)
                     for total in _window_sums(windows, y, counts)], axis=1)


def running_max_moment(F: SimpleAdaptedProcess, t: float, B, p: float, q: float,
                       n_samples: int, seed: int) -> dict:
    """Monte Carlo (E sup_{s<=t} ||int_(0,s]||_q^p)^(1/p) with a CI half-width.

    The supremum runs over grid breakpoints, which is exact because the
    integral path is a step function in s.  The terminal moment estimate and
    its CI come from the same paths.
    """
    norms = sample_paths(F, t, B, q, n_samples, seed)
    sup_est, sup_ci = moment_ci(norms.max(axis=1), p)
    term_est, term_ci = moment_ci(norms[:, -1], p)
    return {"estimate": sup_est, "ci_half": sup_ci,
            "terminal": term_est, "terminal_ci_half": term_ci,
            "n_samples": n_samples}


# -- process norms -------------------------------------------------------------


PROCESS_NORMS = ("S", "S_c", "S_r", "D_qq", "D_pq", "I_regime")


def _process_tables(F: SimpleAdaptedProcess, t: float, B, model: ExactModel | None):
    """(lam vector, probs, y table (cells, atoms, *elem)) for the window; an
    adapted process without ``model`` is materialized at the defaults of
    ``build_exact_model``."""
    grid = F.grid
    window = [cell for interval in _window_cells(grid, t, B) for cell in interval]
    lam = np.array([lam for _, lam in window])
    if F.is_deterministic:
        probs = np.ones(1)
        cells = grid.cells()
        y = _coefficient_table(F, cells, np.zeros((len(cells), 1), dtype=int))
    else:
        if model is None:
            model = build_exact_model(F)
        probs, y = model.space.probs, model.y
    return lam, probs, y[[k for k, _ in window]]


def process_norm(F: SimpleAdaptedProcess, t: float, B, p: float, q: float,
                 which: str, tol: float = 1e-6, *, model: ExactModel | None = None,
                 restarts: int = 8, max_iter: int = 5000, seed: int = 0):
    """One of the process norms, or the regime composite for ``I_regime``.

    Cells are clipped to (0, t] x B.  An adapted process without ``model``
    is materialized at truncation eps 1e-10 and the default budget.  For the
    composite, sums are optimized decompositions of the coefficient table
    and the value is an upper bound.
    """
    if which not in PROCESS_NORMS:
        raise InvalidInputError(f"unknown process norm {which!r}")
    if not F.grid.is_refined:
        raise InvalidInputError("every cell intensity must be at most 1")
    lam, probs, y = _process_tables(F, t, B, model)
    weights = F.elem_space.weights if F.elem_space is not None else None
    mode = "commutative" if F.elem_space is not None else "noncommutative"

    if which != "I_regime":
        return norm_atom(which, p, q, probs, weights, lam).value(y)
    spec = regime_select(p, q, mode)
    return evaluate_tree(spec.tree, lambda name: norm_atom(name, p, q, probs, weights, lam), y,
                         tol, restarts=restarts, max_iter=max_iter, seed=seed)[0]


# -- decoupling construction ----------------------------------------------------


def decoupling_difference_sequence(G_list, M_list, Mc_list) -> dict:
    """Martingale differences interleaving a sequence with its independent copy.

    Given stagewise G_i (predictable factors), M_i, and the copies M_i^c,
    builds d_{2i-1} = G_i (M_i + M_i^c)/2 and d_{2i} = G_i (M_i - M_i^c)/2,
    and verifies per path that

        sum d_i = sum G_i M_i     and     sum (-1)^(i+1) d_i = sum G_i M_i^c.
    """
    n = len(G_list)
    if not (len(M_list) == len(Mc_list) == n):
        raise InvalidInputError("stage lists must have equal length")
    d = []
    total = None
    alt = None
    gm = None
    gmc = None
    for i in range(n):
        G = np.asarray(G_list[i], dtype=complex)
        M = np.asarray(M_list[i], dtype=complex)
        Mc = np.asarray(Mc_list[i], dtype=complex)
        odd = 0.5 * G * (M + Mc)
        even = 0.5 * G * (M - Mc)
        d.extend([odd, even])
        total = odd + even if total is None else total + odd + even
        alt = odd - even if alt is None else alt + odd - even
        gm = G * M if gm is None else gm + G * M
        gmc = G * Mc if gmc is None else gmc + G * Mc
    res_sum = float(np.abs(total - gm).max()) if n else 0.0
    res_alt = float(np.abs(alt - gmc).max()) if n else 0.0
    return {"d": d, "sum": total, "alternating": alt,
            "sum_residual": res_sum, "alternating_residual": res_alt}
