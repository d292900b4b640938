import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from itolab.lq import InvalidInputError, LqElement, batch_norm_q, point_space
from itolab.poisson import GridPartition
from itolab.normfuncs import norm_atom
from itolab.prob import exact_moment, philox, centered_poisson_moment
from itolab.integrator import (SimpleAdaptedProcess, _process_tables, build_exact_model,
                               deterministic_process, integrate_exact, process_norm,
                               running_max_moment, sample_paths)
from itolab.instances import (multi_cell_process, single_cell_process,
                              two_stage_adapted_process)
from oracles import decoupling_difference_sequence, uniform_space

ES = point_space()


def one_cell(lam=0.4, value=2.0):
    return single_cell_process(lam, np.array([value]), ES)


def atom_norm(F, name, p, q):
    """One process-norm atom (S, S_c, S_r, D_qq or D_pq) of F over its grid."""
    lam, probs, y = _process_tables(F, None)
    weights = F.elem_space.weights if F.elem_space is not None else None
    return norm_atom(name, p, q, probs, weights, lam).value(y)


def test_integrate_zero_process():
    grid = GridPartition(np.array([0.0, 1.0]), ("A",), np.array([0.5]))
    F = SimpleAdaptedProcess(grid, {}, ES, (1,))
    assert np.allclose(integrate_exact(build_exact_model(F, eps=1e-8)).values, 0.0)


def test_deterministic_process_without_cells_is_the_zero_process():
    grid = GridPartition(np.array([0.0, 1.0]), ("A",), np.array([0.5]))
    for F in (deterministic_process(grid, {}, ES),
              deterministic_process(grid, {}, None, (2, 3))):
        assert F.coefficients == {}
        integral = integrate_exact(build_exact_model(F, eps=1e-8)).values
        assert integral.shape[1:] == ((1,) if F.elem_space else (2, 3))
        assert not np.any(integral)
    with pytest.raises(InvalidInputError):
        deterministic_process(grid, {})


def test_integrate_single_cell_is_scaled_count():
    F = one_cell()
    model = build_exact_model(F, eps=1e-8)
    got = integrate_exact(model)
    assert got.values[:, 0] == pytest.approx(2.0 * (model.counts[0] - 0.4))


def test_exact_martingale_mean_zero():
    F = two_stage_adapted_process(0.5, 0.4, np.array([1.0]), bump=0.7, elem_space=ES)
    # the integral up to the first breakpoint is F's on the grid cut there
    cut = GridPartition(F.grid.time_points[:2], F.grid.j_labels, F.grid.j_measures)
    first = SimpleAdaptedProcess(cut, {(0, 0): F.coefficients[(0, 0)]}, ES, F.elem_shape)
    for G in (first, F):
        I = integrate_exact(build_exact_model(G, eps=1e-12))
        bias = abs(np.tensordot(I.space.probs, I.values, axes=(0, 0))[0])
        assert bias <= 1e-9


def test_exact_moment_matches_poisson_series():
    lam, x = 0.7, 1.5
    F = one_cell(lam, x)
    model = build_exact_model(F, eps=1e-13)
    I = integrate_exact(model)
    for p in (2.0, 3.0):
        got = exact_moment(I, p, 2.0)
        target = x * centered_poisson_moment(p, lam) ** (1 / p)
        assert got == pytest.approx(target, rel=1e-9)


def test_decoupled_deterministic_same_moments():
    F = multi_cell_process([0.3, 0.6], [np.array([1.0]), np.array([-2.0])], ES)
    model = build_exact_model(F, eps=1e-11, decoupled=True)
    for p, q in [(2.0, 2.0), (3.0, 2.0), (4.0, 3.0)]:
        coupled = exact_moment(integrate_exact(model), p, q)
        dec = exact_moment(integrate_exact(model, use_copy=True), p, q)
        assert coupled == pytest.approx(dec, rel=1e-12)


def test_decoupled_zero_process():
    grid = GridPartition(np.array([0.0, 1.0]), ("A",), np.array([0.5]))
    F = SimpleAdaptedProcess(grid, {}, ES, (1,))
    I = integrate_exact(build_exact_model(F, 1e-8, decoupled=True), use_copy=True)
    assert np.allclose(I.values, 0.0)


def test_running_max_single_cell_sup_is_terminal():
    F = one_cell(0.5, 1.0)
    (sup, _), (terminal, _) = running_max_moment(F, 3.0, 2.0, n_samples=500, seed=4)
    assert sup == pytest.approx(terminal, rel=1e-12)


def test_running_max_doob_domination():
    F = multi_cell_process([0.5, 0.8, 0.3], [np.array([1.0]), np.array([-1.5]),
                                             np.array([2.0])], ES)
    p = 3.0
    # both half-widths are 3 sigma
    (sup, ci), (terminal, terminal_ci) = running_max_moment(F, p, 2.0, n_samples=4000, seed=8)
    p_prime = p / (p - 1)
    widen = ci + p_prime * terminal_ci
    assert sup <= p_prime * terminal + widen


def test_running_max_zero_process():
    grid = GridPartition(np.array([0.0, 1.0]), ("A",), np.array([0.5]))
    F = SimpleAdaptedProcess(grid, {}, ES, (1,))
    (sup, _), _ = running_max_moment(F, 2.0, 2.0, n_samples=100, seed=1)
    assert sup == 0.0


def test_process_norm_single_cell_formulas():
    lam, x, p, q = 0.36, 1.7, 4.0, 2.5
    F = single_cell_process(lam, np.array([x]), ES)
    assert atom_norm(F, "S", p, q) == pytest.approx(x * lam ** 0.5, rel=1e-12)
    assert atom_norm(F, "D_qq", p, q) == pytest.approx(x * lam ** (1 / q), rel=1e-12)
    assert atom_norm(F, "D_pq", p, q) == pytest.approx(x * lam ** (1 / p), rel=1e-12)


def test_process_norm_zero_and_homogeneity():
    F = multi_cell_process([0.2, 0.5], [np.array([1.0]), np.array([2.0])], ES)
    zero = F.scaled(0.0)
    assert process_norm(zero, 3.0, 2.0) == 0.0
    c = 4.0
    for which in ("S", "D_qq", "D_pq"):
        assert atom_norm(zero, which, 3.0, 2.0) == 0.0
        v1 = atom_norm(F, which, 3.0, 2.0)
        v2 = atom_norm(F.scaled(c), which, 3.0, 2.0)
        assert v2 == pytest.approx(c * v1, rel=1e-12)


def test_process_norm_matrix_sides():
    grid = GridPartition(np.array([0.0, 1.0]), ("A",), np.array([0.5]))
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    F = deterministic_process(grid, {(0, 0): e12})
    s_c = atom_norm(F, "S_c", 2.0, 3.0)
    s_r = atom_norm(F, "S_r", 2.0, 3.0)
    assert s_c == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert s_r == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_refinement_leaves_integrals_and_norms_unchanged():
    # the one-cell grid [0, 2] x A with nu = 1, cut into two unit cells
    fine_grid = GridPartition(np.array([0.0, 1.0, 2.0]), ("A",), np.array([1.0]))
    F_fine = deterministic_process(
        fine_grid, {(i, 0): np.array([1.3]) for i in range(fine_grid.n_intervals)}, ES)
    for which in ("S", "D_qq", "D_pq"):
        a = atom_norm(F_fine, which, 3.0, 2.0)
        # the unrefined grid has lam = 2 > 1; compute its formula directly
        lam = 2.0
        expo = {"S": 0.5, "D_qq": 1 / 2.0, "D_pq": 1 / 3.0}[which]
        assert a == pytest.approx(1.3 * lam ** expo, rel=1e-10)


def test_decoupling_difference_sequence_basic():
    res = decoupling_difference_sequence([1.0], [2.0], [0.0])
    assert np.allclose(res["d"], [1.0, 1.0])
    assert res["sum"] == pytest.approx(2.0)
    assert res["alternating"] == pytest.approx(0.0)
    assert res["sum_residual"] == 0.0


def test_decoupling_difference_equal_copies():
    G = [np.array([1.0, 2.0]), np.array([0.5, -1.0])]
    M = [np.array([1.0, -1.0]), np.array([2.0, 0.5])]
    res = decoupling_difference_sequence(G, M, M)
    for k in (1, 3):  # even-indexed d (0-based odd) vanish when M = M^c
        assert np.allclose(res["d"][k], 0.0)


def test_decoupling_difference_exact_on_product_space():
    # 3-stage instance enumerated on a product space: identities to 1e-14
    gen = philox(31, 0)
    shape = (3, 4, 5)  # arbitrary path batch
    G = [gen.standard_normal(shape) for _ in range(3)]
    M = [gen.standard_normal(shape) for _ in range(3)]
    Mc = [gen.standard_normal(shape) for _ in range(3)]
    res = decoupling_difference_sequence(G, M, Mc)
    assert res["sum_residual"] <= 1e-14
    assert res["alternating_residual"] <= 1e-14


def test_adapted_coefficient_reads_only_earlier_cells():
    F = two_stage_adapted_process(0.6, 0.5, np.array([1.0]), bump=1.0, elem_space=ES)
    model = build_exact_model(F, eps=1e-8)
    # stage-2 coefficient equals 1 + count of cell (0, 0) on every atom
    k0 = F.grid.cells().index((0, 0))
    k1 = F.grid.cells().index((1, 0))
    expected = 1.0 + model.counts[k0]
    assert np.allclose(model.y[k1][:, 0].real, expected)


def test_process_norm_requires_refined_grid():
    grid = GridPartition(np.array([0.0, 3.0]), ("A",), np.array([1.0]))
    F = deterministic_process(grid, {(0, 0): np.array([1.0])}, ES)
    with pytest.raises(Exception):
        process_norm(F, 2.0, 2.0)


def test_decoupled_integral_equals_alternating_interleaving():
    # pathwise, the decoupled integral is the alternating sum of the
    # interleaved difference sequence built from the same G, M, M^c
    F = two_stage_adapted_process(0.4, 0.3, np.array([1.0]), bump=0.6, elem_space=ES)
    model = build_exact_model(F, eps=1e-7, decoupled=True)
    lam = F.grid.intensities
    G = [model.y[k][:, 0] for k in range(2)]
    M = [model.counts[k] - lam[k, 0] for k in range(2)]
    Mc = [model.counts_c[k] - lam[k, 0] for k in range(2)]
    res = decoupling_difference_sequence(G, M, Mc)
    dec = integrate_exact(model, use_copy=True)
    assert np.allclose(res["alternating"], dec.values[:, 0], atol=1e-13)
    coup = integrate_exact(model)
    assert np.allclose(res["sum"], coup.values[:, 0], atol=1e-13)


# -- reference copies of the integral paths before the shared coefficient
# table and running sum; the current paths must agree with them bit for bit


def _ref_coefficient_at(F, i, j, counts_before):
    c = F.coefficients.get((i, j))
    if c is None:
        return LqElement(np.zeros(F.elem_shape, dtype=complex), F.elem_space)
    return c if isinstance(c, LqElement) else c(counts_before)


def _ref_integrate_exact(model, use_copy=False):
    counts = model.counts_c if use_copy else model.counts
    lam = model.process.grid.intensities
    elem_axes = (slice(None),) + (None,) * len(model.process.elem_shape)
    total = np.zeros((model.space.n_atoms,) + tuple(model.process.elem_shape), dtype=complex)
    for k, (i, j) in enumerate(model.process.grid.cells()):
        comp = (counts[k] - lam[i, j])[elem_axes]
        total = total + model.y[k] * comp
    return total


def _ref_sample_paths(F, q, n_samples, seed, stream=0):
    grid = F.grid
    gen = philox(seed, stream)
    lam = grid.intensities
    counts = gen.poisson(lam, size=(n_samples,) + lam.shape)
    weights = F.elem_space.weights if F.elem_space is not None else None
    det = F.is_deterministic
    norms = np.zeros((n_samples, grid.n_intervals))
    partial = np.zeros((n_samples,) + tuple(F.elem_shape), dtype=complex)
    for i in range(grid.n_intervals):
        for j in range(grid.n_marks):
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
                    y = _ref_coefficient_at(F, i, j, cb)
                    partial[sidx] = partial[sidx] + y.values * comp[sidx]
        norms[:, i] = batch_norm_q(partial, q, weights)
    return norms


def _ref_process_tables(F, model):
    grid = F.grid
    cells = grid.cells()
    lam = np.array([(grid.time_points[i + 1] - grid.time_points[i]) * grid.j_measures[j]
                    for i, j in cells])
    if F.is_deterministic:
        y = np.zeros((len(cells), 1) + tuple(F.elem_shape), dtype=complex)
        for k, cell in enumerate(cells):
            c = F.coefficients.get(cell)
            if c is not None:
                y[k, 0] = c.values
        return lam, np.ones(1), y
    idx = {cell: k for k, cell in enumerate(model.process.grid.cells())}
    return lam, model.space.probs, np.stack([model.y[idx[cell]] for cell in cells])


def _assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


W2 = uniform_space(2)
_GRID = GridPartition(np.array([0.0, 0.7, 1.5]), ("A", "B"), np.array([0.35, 0.6]))
_MAT = {(0, 0): np.array([[1.0, -0.5], [0.25, 2.0]]), (0, 1): np.array([[0.0, 1.5], [-1.0, 0.5j]]),
        (1, 1): np.array([[0.3, 0.0], [1.0, -1.25]])}


def _adapted(elem, elem_space):
    """Two marks: the second interval's coefficients read both first-interval
    counts; cell (1, 0) has no coefficient."""
    base = LqElement(np.asarray(elem, dtype=complex), elem_space)

    def late(cb):
        return base * (1.0 + 0.5 * cb[(0, 0)] - 0.75 * cb[(0, 1)] + 0.125j * cb[(0, 0)] ** 2)

    return SimpleAdaptedProcess(_GRID, {(0, 0): base * -1.5, (0, 1): base, (1, 1): late},
                                elem_space, base.shape)


_PROCESSES = {
    "det-one-mark": multi_cell_process([0.3, 0.6, 0.45],
                                       [np.array([1.0]), np.array([-2.0]), np.array([0.75])], ES),
    "det-two-marks": deterministic_process(
        _GRID, {(0, 0): np.array([1.0, -0.5]), (1, 0): np.array([2.0, 0.25]),
                (1, 1): np.array([-1.0, 3.0])}, W2),
    "det-matrix": deterministic_process(_GRID, _MAT),
    "adapted-commutative": _adapted([1.0, -0.5], W2),
    "adapted-matrix": _adapted([[1.0, -0.5], [0.25, 2.0]], None),
    "adapted-one-mark": two_stage_adapted_process(0.5, 0.4, np.array([1.0]), bump=0.7,
                                                  elem_space=ES),
}


@pytest.mark.parametrize("name", sorted(_PROCESSES))
def test_exact_model_and_integrals_match_reference_bits(name):
    F = _PROCESSES[name]
    model = build_exact_model(F, eps=1e-2, decoupled=True)
    # the table holds each adapted coefficient at the atom's earlier counts
    cells = F.grid.cells()
    for k, (i, j) in enumerate(cells):
        for a in range(0, model.space.n_atoms, 97):
            cb = {cells[kk]: int(model.counts[kk, a])
                  for kk in range(len(cells)) if cells[kk][0] < i}
            _assert_bits(model.y[k, a], _ref_coefficient_at(F, i, j, cb).values)
    for use_copy in (False, True):
        got = integrate_exact(model, use_copy=use_copy)
        _assert_bits(got.values, _ref_integrate_exact(model, use_copy))


@pytest.mark.parametrize("name", sorted(_PROCESSES))
def test_sample_paths_match_reference_bits(name):
    F = _PROCESSES[name]
    _assert_bits(sample_paths(F, 2.5, 150, seed=4, stream=3),
                 _ref_sample_paths(F, 2.5, 150, seed=4, stream=3))


@pytest.mark.parametrize("name", sorted(_PROCESSES))
def test_process_tables_match_reference_bits(name):
    F = _PROCESSES[name]
    model = None if F.is_deterministic else build_exact_model(F, eps=1e-4)
    for a, b in zip(_process_tables(F, model), _ref_process_tables(F, model)):
        _assert_bits(a, b)


def test_ito_sweep_script_rows(monkeypatch, capsys):
    # rows of scripts/ito_sweep.py recorded before the shared coefficient table
    script = Path(__file__).parents[1] / "scripts" / "ito_sweep.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--lambdas", "0.5"])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == [
        '',
        '(p, q) = (3.0, 2.5)  case 1  (S & D_qq & D_pq)',
        '     lam       moment         norm        R',
        '   0.500     0.866964     0.793701    1.092',
        '',
        '(p, q) = (2.5, 3.0)  case 2  (S & (D_qq + D_pq))',
        '     lam       moment         norm        R',
        '   0.500     0.780772     0.757858    1.030',
        '',
        '(p, q) = (1.5, 3.0)  case 3  ((S & D_qq) + D_pq)',
        '     lam       moment         norm        R',
        '   0.500     0.649076     0.629961    1.030',
        '',
        '(p, q) = (3.0, 1.5)  case 4  ((S + D_qq) & D_pq)',
        '     lam       moment         norm        R',
        '   0.500     0.866964     0.793701    1.092',
        '',
        '(p, q) = (1.8, 1.5)  case 5  (S + (D_qq & D_pq))',
        '     lam       moment         norm        R',
        '   0.500     0.681952     0.680395    1.002',
        '',
        '(p, q) = (1.5, 1.8)  case 6  (S + D_qq + D_pq)',
        '     lam       moment         norm        R',
        '   0.500     0.649076     0.629961    1.030',
    ]
