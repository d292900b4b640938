"""Simple adapted processes and the compensated Poisson stochastic integral.

A simple adapted process is a finite tensor form over the cells of a grid
partition: on cell (i, j) it takes a value y_ij that may depend only on the
counts of cells with earlier time index (adaptedness is structural: the
coefficient callback is handed exactly those counts).  The integral over
(0, t] x B is the finite sum

    sum_{cells in the window} y_ij * (N_ij - lam_ij),

piecewise constant in t between breakpoints.

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

from .lq import FiniteMeasureSpace, InvalidInputError, LqElement
from .normfuncs import norm_atom
from .poisson import GridPartition, PoissonFieldRealization
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

    def coefficient_at(self, i: int, j: int, counts_before: dict) -> LqElement:
        c = self.coefficients.get((i, j))
        if c is None:
            zeros = np.zeros(self.elem_shape, dtype=complex)
            return LqElement(zeros, self.elem_space)
        if isinstance(c, LqElement):
            return c
        return c(counts_before)

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


def _window_cells(grid: GridPartition, t: float, B) -> list[tuple[int, int, float]]:
    """Cells meeting (0, t] x B with their clipped lengths."""
    if B is None:
        marks = list(range(grid.n_marks))
    else:
        marks = sorted(grid.mark_index(b) for b in B)
    out = []
    for i in range(grid.n_intervals):
        a, b = grid.time_points[i], grid.time_points[i + 1]
        if t <= a:
            break
        clip = min(b, t) - a
        for j in marks:
            out.append((i, j, clip))
    return out


def integrate(F: SimpleAdaptedProcess, field: PoissonFieldRealization,
              t: float, B=None) -> LqElement:
    """Pathwise integral over (0, t] x B for one field realization.

    Interior t clips the current cell using the stored event times; the
    compensator is clipped proportionally.
    """
    if t <= 0:
        raise InvalidInputError("t must be positive")
    if field.grid is not F.grid and field.grid != F.grid:
        raise InvalidInputError("field and process use different grids")
    grid = F.grid
    total = np.zeros(F.elem_shape, dtype=complex)
    for i, j, clip in _window_cells(grid, t, B):
        if (i, j) not in F.coefficients:
            continue
        counts_before = {(ii, jj): int(field.counts[ii, jj])
                         for ii in range(i) for jj in range(grid.n_marks)}
        y = F.coefficient_at(i, j, counts_before)
        a = grid.time_points[i]
        full = grid.time_points[i + 1] - a
        if clip >= full:
            n_win = int(field.counts[i, j])
        else:
            n_win = field.count_before(i, j, a + clip)
        lam_win = clip * grid.j_measures[j]
        total = total + y.values * (n_win - lam_win)
    return LqElement(total, F.elem_space)


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
    n_cells = len(cell_order)
    n_atoms = prod.n_atoms
    counts = np.empty((n_cells, n_atoms), dtype=int)
    for k in range(n_cells):
        counts[k] = np.asarray(spaces[k].atoms)[prod.factor_indices(k)]
    counts_c = None
    if decoupled:
        counts_c = np.empty((n_cells, n_atoms), dtype=int)
        for k in range(n_cells):
            counts_c[k] = np.asarray(spaces[k].atoms)[prod.factor_indices(n_cells + k)]
    elem_shape = tuple(F.elem_shape)
    y = np.zeros((n_cells, n_atoms) + elem_shape, dtype=complex)
    for k, (i, j) in enumerate(cell_order):
        c = F.coefficients.get((i, j))
        if c is None:
            continue
        if isinstance(c, LqElement):
            y[k] = c.values
            continue
        earlier = [kk for kk, (ii, _) in enumerate(cell_order) if ii < i]
        if not earlier:
            y[k] = c({}).values
            continue
        # group atoms by the earlier-cell count pattern; one callback per pattern
        patterns = counts[earlier]
        _, inverse = np.unique(patterns.T, axis=0, return_inverse=True)
        for pat_id in np.unique(inverse):
            sel = np.nonzero(inverse == pat_id)[0]
            cb = {cell_order[kk]: int(counts[kk, sel[0]]) for kk in earlier}
            y[k, sel] = c(cb).values
    tail = sum(tp.tail_bound for tp in tps)
    return ExactModel(F, prod, cell_order, counts, y, tail, counts_c)


def integrate_exact(model: ExactModel, t: float, B=None,
                    use_copy: bool = False) -> RandomLqVariable:
    """The integral as an exact random variable; t must be a breakpoint."""
    grid = model.process.grid
    if not any(math.isclose(t, tp) for tp in grid.time_points[1:]):
        raise InvalidInputError("exact mode integrates up to grid breakpoints only")
    counts = model.counts_c if use_copy else model.counts
    if use_copy and counts is None:
        raise InvalidInputError("model was built without a decoupled copy")
    lam = grid.intensities
    window = {(i, j) for i, j, _ in _window_cells(grid, t, B)}
    elem_axes = (slice(None),) + (None,) * len(model.process.elem_shape)
    total = np.zeros((model.space.n_atoms,) + tuple(model.process.elem_shape), dtype=complex)
    for k, (i, j) in enumerate(model.cell_order):
        if (i, j) not in window:
            continue
        comp = (counts[k] - lam[i, j])[elem_axes]
        total = total + model.y[k] * comp
    return RandomLqVariable(model.space, total, model.process.elem_space)


def decoupled_integrate(F: SimpleAdaptedProcess, t: float, B=None, *,
                        eps: float = 1e-10, budget: int = DEFAULT_EXACT_BUDGET,
                        model: ExactModel | None = None) -> RandomLqVariable:
    """Exact decoupled integral: same formula, independent copy of the field."""
    if model is None:
        model = build_exact_model(F, eps, budget, decoupled=True)
    return integrate_exact(model, t, B, use_copy=True)


# -- sampled paths -------------------------------------------------------------


def sample_paths(F: SimpleAdaptedProcess, t: float, B, q: float,
                 n_samples: int, seed: int, stream: int = 0):
    """Norms of the integral at every breakpoint <= t, per sampled path.

    Returns an (n_samples, n_prefixes) array of ||integral over (0, s]||_q
    for the breakpoints s.  The path is a step function in s, so these are
    the only values the running supremum can take.
    """
    grid = F.grid
    if not any(math.isclose(t, tp) for tp in grid.time_points[1:]):
        raise InvalidInputError("sampled moments take t at a grid breakpoint")
    gen = philox(seed, stream)
    lam = grid.intensities
    counts = gen.poisson(lam, size=(n_samples,) + lam.shape)
    breaks = [tp for tp in grid.time_points[1:] if tp <= t + 1e-12]
    marks = list(range(grid.n_marks)) if B is None else sorted(grid.mark_index(b) for b in B)
    weights = F.elem_space.weights if F.elem_space is not None else None
    from .lq import batch_norm_q
    det = F.is_deterministic
    norms = np.zeros((n_samples, len(breaks)))
    partial = np.zeros((n_samples,) + tuple(F.elem_shape), dtype=complex)
    for i_prefix, s in enumerate(breaks):
        i = i_prefix
        for j in marks:
            c = F.coefficients.get((i, j))
            if c is None:
                continue
            comp = counts[:, i, j] - lam[i, j]
            if det:
                y = c.values[None, ...]
                partial = partial + y * comp.reshape((-1,) + (1,) * len(F.elem_shape))
            else:
                for sidx in range(n_samples):
                    cb = {(ii, jj): int(counts[sidx, ii, jj])
                          for ii in range(i) for jj in range(grid.n_marks)}
                    y = F.coefficient_at(i, j, cb)
                    partial[sidx] = partial[sidx] + y.values * comp[sidx]
        norms[:, i_prefix] = batch_norm_q(partial, q, weights)
    return norms


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


# -- grid conditional expectation ----------------------------------------------


@dataclass(frozen=True, eq=False)
class StepProcess:
    """Deterministic step function on a fine time partition x marks."""

    time_points: np.ndarray
    values: np.ndarray            # (n_fine_intervals, n_marks, *elem)
    elem_space: FiniteMeasureSpace | None = None

    def __post_init__(self):
        t = np.asarray(self.time_points, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "time_points", t)
        object.__setattr__(self, "values", v)
        if np.any(np.diff(t) <= 0):
            raise InvalidInputError("time points must strictly increase")
        if v.shape[0] != len(t) - 1:
            raise InvalidInputError("one value row per fine interval required")


def grid_condition(G: StepProcess, grid: GridPartition) -> dict:
    """Cellwise averages y_ij = (cell measure)^-1 * integral of G over the cell.

    Fine intervals may straddle cell boundaries; overlaps weight the average.
    Mass outside the grid's time span is dropped (zero contribution), and a
    zero-measure overlap yields the zero coefficient.
    """
    n_marks = grid.n_marks
    if G.values.shape[1] != n_marks:
        raise InvalidInputError("step process marks must match the grid")
    elem_shape = G.values.shape[2:]
    out = {}
    for i in range(grid.n_intervals):
        a, b = grid.time_points[i], grid.time_points[i + 1]
        acc = np.zeros((n_marks,) + elem_shape, dtype=complex)
        for k in range(G.values.shape[0]):
            fa, fb = G.time_points[k], G.time_points[k + 1]
            overlap = max(0.0, min(b, fb) - max(a, fa))
            if overlap > 0:
                acc += overlap * G.values[k]
        length = b - a
        for j in range(n_marks):
            y = acc[j] / length if length > 0 else np.zeros(elem_shape, dtype=complex)
            if np.any(y != 0):
                out[(i, j)] = LqElement(y, G.elem_space)
    return out


def condition_as_step(coefficients: dict, grid: GridPartition,
                      elem_shape, elem_space=None) -> StepProcess:
    """Render cell coefficients back as a step process on the grid."""
    vals = np.zeros((grid.n_intervals, grid.n_marks) + tuple(elem_shape), dtype=complex)
    for (i, j), x in coefficients.items():
        vals[i, j] = x.values
    return StepProcess(grid.time_points, vals, elem_space)


# -- process norms -------------------------------------------------------------


PROCESS_NORMS = ("S", "S_c", "S_r", "D_qq", "D_pq", "I_regime")


def _process_tables(F: SimpleAdaptedProcess, t: float, B,
                    model: ExactModel | None, eps: float, budget: int):
    """(lam vector, probs, y table (cells, atoms, *elem)) for the window."""
    grid = F.grid
    window = [(i, j, clip) for i, j, clip in _window_cells(grid, t, B)]
    lam = np.array([clip * grid.j_measures[j] for _, j, clip in window])
    if F.is_deterministic:
        probs = np.ones(1)
        y = np.zeros((len(window), 1) + tuple(F.elem_shape), dtype=complex)
        for k, (i, j, _) in enumerate(window):
            c = F.coefficients.get((i, j))
            if c is not None:
                y[k, 0] = c.values
        return lam, probs, y
    if model is None:
        model = build_exact_model(F, eps, budget)
    probs = model.space.probs
    idx = {cell: k for k, cell in enumerate(model.cell_order)}
    y = np.stack([model.y[idx[(i, j)]] for (i, j, _) in window])
    return lam, probs, y


def process_norm(F: SimpleAdaptedProcess, t: float, B, p: float, q: float,
                 which: str, tol: float = 1e-6, *, model: ExactModel | None = None,
                 eps: float = 1e-10, budget: int = DEFAULT_EXACT_BUDGET,
                 restarts: int = 8, max_iter: int = 5000, seed: int = 0):
    """One of the process norms, or the regime composite for ``I_regime``.

    Cells are clipped to (0, t] x B.  For the composite, sums are optimized
    decompositions of the coefficient table and the value is an upper bound.
    """
    if which not in PROCESS_NORMS:
        raise InvalidInputError(f"unknown process norm {which!r}")
    if not F.grid.is_refined:
        raise InvalidInputError("grid must be refined to cell intensities <= 1")
    lam, probs, y = _process_tables(F, t, B, model, eps, budget)
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
