"""Seeded random instances: elements, sequences, and process families."""

from __future__ import annotations

import numpy as np

from .lq import FiniteMeasureSpace, LqElement, point_space
from .poisson import GridPartition
from .prob import (FiniteProbabilitySpace, RandomLqVariable, independent_product)
from .seqnorms import LqSequence
from .integrator import SimpleAdaptedProcess, deterministic_process


def element_space_of(spec: dict) -> FiniteMeasureSpace | None:
    if spec.get("kind", "matrix") == "commutative":
        w = np.asarray(spec.get("weights", [1.0]), dtype=float)
        return FiniteMeasureSpace(tuple(range(len(w))), w)
    return None


def element_shape(spec: dict) -> tuple:
    """Value shape of an element: (atoms,) for commutative, dims for matrix."""
    if spec.get("kind", "matrix") == "commutative":
        return (len(spec.get("weights", [1.0])),)
    return tuple(spec.get("dims", [2, 2]))


def random_element(gen: np.random.Generator, spec: dict) -> LqElement:
    """Element with complex standard-normal entries."""
    shape = element_shape(spec)
    vals = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return LqElement(vals, element_space_of(spec))


def random_mean_zero_variable(gen: np.random.Generator, spec: dict,
                              n_atoms: int = 2) -> RandomLqVariable:
    """Independent finite-atom complex variable with exact mean zero.

    Draws n_atoms - 1 free values and solves the last one from the mean-zero
    constraint; probabilities are drawn away from 0.
    """
    probs = gen.uniform(0.2, 0.8, size=n_atoms)
    probs = probs / probs.sum()
    space = FiniteProbabilitySpace(tuple(range(n_atoms)), probs)
    es, shape = element_space_of(spec), element_shape(spec)
    vals = gen.standard_normal((n_atoms,) + shape)
    vals = vals + 1j * gen.standard_normal((n_atoms,) + shape)
    pcol = probs[:-1].reshape((-1,) + (1,) * len(shape))
    vals[-1] = -(pcol * vals[:-1]).sum(axis=0) / probs[-1]
    return RandomLqVariable(space, vals, es)


def random_independent_sequence(gen: np.random.Generator, n_items: int, spec: dict,
                                n_atoms: int = 2) -> LqSequence:
    """Independent mean-zero items lifted onto their product space."""
    items = [random_mean_zero_variable(gen, spec, n_atoms) for _ in range(n_items)]
    _, lifted = independent_product(items)
    return LqSequence.from_variables(lifted)


def random_positive_sequence(gen: np.random.Generator, n_items: int,
                             n_atoms: int = 2) -> LqSequence:
    """Independent nonnegative scalar items (not mean-zero)."""
    items = []
    for _ in range(n_items):
        probs = gen.uniform(0.2, 0.8, size=n_atoms)
        probs = probs / probs.sum()
        space = FiniteProbabilitySpace(tuple(range(n_atoms)), probs)
        vals = gen.uniform(0.0, 2.0, size=(n_atoms, 1)).astype(complex)
        items.append(RandomLqVariable(space, vals, point_space()))
    _, lifted = independent_product(items)
    return LqSequence.from_variables(lifted)


def bernoulli_sequence(lams: list[float]) -> LqSequence:
    """Independent Bernoulli(lam) scalar items."""
    items = []
    for lam in lams:
        space = FiniteProbabilitySpace((0, 1), np.array([1.0 - lam, lam]))
        vals = np.array([[0.0], [1.0]], dtype=complex)
        items.append(RandomLqVariable(space, vals, point_space()))
    _, lifted = independent_product(items)
    return LqSequence.from_variables(lifted)


def single_cell_process(lam: float, x: np.ndarray, elem_space=None) -> SimpleAdaptedProcess:
    """One unit-length cell of intensity lam carrying the deterministic value x."""
    grid = GridPartition(np.array([0.0, 1.0]), ("A",), np.array([lam]))
    return deterministic_process(grid, {(0, 0): np.asarray(x, dtype=complex)}, elem_space)


def multi_cell_process(lams: list[float], xs: list[np.ndarray],
                       elem_space=None) -> SimpleAdaptedProcess:
    """Unit-length time intervals, one mark, deterministic cell values."""
    n = len(lams)
    if len(xs) != n:
        raise ValueError("one value per cell required")
    # one mark of measure max(lam); vary the interval lengths to hit each lam
    grid_pts = [0.0]
    nu = max(lams)
    for lam in lams:
        grid_pts.append(grid_pts[-1] + lam / nu)
    grid = GridPartition(np.array(grid_pts), ("A",), np.array([nu]))
    cells = {(i, 0): np.asarray(xs[i], dtype=complex) for i in range(n)}
    return deterministic_process(grid, cells, elem_space)


def two_stage_adapted_process(lam1: float, lam2: float, base: np.ndarray,
                              bump: float, elem_space=None) -> SimpleAdaptedProcess:
    """Second-stage coefficient reads the first cell's count (adapted)."""
    nu = max(lam1, lam2)
    grid = GridPartition(np.array([0.0, lam1 / nu, lam1 / nu + lam2 / nu]),
                         ("A",), np.array([nu]))
    base = np.asarray(base, dtype=complex)
    x0 = LqElement(base, elem_space)

    def stage2(counts_before: dict) -> LqElement:
        k = counts_before.get((0, 0), 0)
        return LqElement(base * (1.0 + bump * k), elem_space)

    return SimpleAdaptedProcess(grid, {(0, 0): x0, (1, 0): stage2},
                                elem_space, base.shape)
