"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, a checker's own constant
by its report's ``tolerance``; the runtime budgets are asserted as well.
"""

import math
import time

import numpy as np
import pytest

from itolab.checks import (check_decoupling, check_doob, check_ito_isomorphism,
                           check_khintchine, check_pq_ge2_equivalence,
                           check_rosenthal_scalar, check_symmetrization,
                           khintchine_upper)
from itolab.instances import (multi_cell_process, random_element,
                              random_independent_sequence, single_cell_process,
                              two_stage_adapted_process)
from itolab.integrator import build_exact_model
from itolab.lq import LqElement, point_space
from itolab.poisson import default_lambda_grid, verify_poisson_moment_bounds
from itolab.prob import (FiniteProbabilitySpace, centered_poisson_moment, philox)
from itolab.randmat import (MatrixEnsemble, bound_entry_matrix, bound_latala,
                            bound_matrix_sum, gaussian_law, rademacher_law,
                            two_atom_law)
from itolab.seqnorms import LqSequence, composite_norm, regime_select
from oracles import brute_force_sum_norm, decoupling_difference_sequence, duality_gap

POINT = point_space()
SCALAR = {"kind": "commutative", "weights": [1.0]}
REGIME_POINTS = {1: (3.0, 2.5), 2: (2.5, 3.0), 3: (1.5, 3.0),
                 4: (3.0, 1.5), 5: (1.8, 1.5), 6: (1.5, 1.8)}


def _emit(num: int, ok: bool, desc: str, elapsed: float, budget: float):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc} ({elapsed:.2f}s / budget {budget:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _scalar_seq(gen, n_items, n_atoms=2, real=False):
    space = FiniteProbabilitySpace(tuple(range(n_atoms)), np.full(n_atoms, 1 / n_atoms))
    vals = gen.standard_normal((n_items, n_atoms, 1))
    if not real:
        vals = vals + 1j * gen.standard_normal((n_items, n_atoms, 1))
    return LqSequence(space, vals.astype(complex), POINT)


def test_criterion_01_poisson_moment_identity():
    import sympy as sp
    t0 = time.perf_counter()
    ok = True
    for lam in default_lambda_grid(60):
        ok &= abs(centered_poisson_moment(2.0, lam) - lam) <= 1e-10
    # oracle: symbolic expansion of the centered generating function
    t, lam_s = sp.symbols("t lam")
    mu4 = float(sp.diff(sp.exp(lam_s * (sp.exp(t) - 1 - t)), t, 4).subs(t, 0).subs(lam_s, 1))
    ok &= abs(mu4 - 4.0) <= 1e-12
    ok &= abs(centered_poisson_moment(4.0, 1.0) - 4.0) <= 1e-9
    _emit(1, ok, "centered Poisson moments: p=2 identity and p=4 value",
          time.perf_counter() - t0, 1.0)


def test_criterion_02_poisson_lower_bound_and_envelopes():
    t0 = time.perf_counter()
    ok = True
    envs = {}
    for num in (60, 120):
        reports = verify_poisson_moment_bounds([2.0, 2.5, 3.0, 4.0],
                                               default_lambda_grid(num))
        for rep in reports:
            ok &= rep.status == "pass" and rep.tolerance == 1e-9
            ok &= rep.details["analytic_lower_margin"] >= -1e-9
            lo, hi = rep.details["envelope_low"], rep.details["envelope_high"]
            ok &= 0 < lo <= hi < math.inf
            envs.setdefault(rep.p, []).append((lo, hi))
    for p, (a, b) in envs.items():
        ok &= abs(a[0] - b[0]) <= 0.01 * abs(b[0])
        ok &= abs(a[1] - b[1]) <= 0.01 * abs(b[1])
    _emit(2, ok, "analytic lower bound and stable envelopes for p in {2,2.5,3,4}",
          time.perf_counter() - t0, 5.0)


def test_criterion_03_exact_khintchine():
    t0 = time.perf_counter()
    gen = philox(101, 0)
    ok = True
    specs = [SCALAR, {"kind": "matrix", "dims": [2, 2]}, {"kind": "matrix", "dims": [3, 3]}]
    for inst in range(50):
        spec = specs[inst % 3]
        n = 1 + int(gen.integers(1, 10))
        xs = [random_element(gen, spec) for _ in range(n)]
        for q in (2.0, 3.0, 4.0):
            rep = check_khintchine(xs, 2.0, q)
            ok &= rep.status == "pass" and rep.tolerance == 1e-12
            ok &= rep.constant == pytest.approx(khintchine_upper(2.0, q))
            ok &= rep.details["lower_margin"] >= -1e-12 * max(rep.lhs, rep.rhs, 1.0)
    _emit(3, ok, "Khintchine: exact constant-1 lower and table upper on 50 instances",
          time.perf_counter() - t0, 30.0)


def test_criterion_04_symmetrization_constants():
    t0 = time.perf_counter()
    gen = philox(202, 0)
    ok = True
    for inst in range(100):
        n_items = 2 + inst % 2
        n_atoms = 2 + inst % 2
        seq = random_independent_sequence(gen, n_items, SCALAR, n_atoms)
        p = (2.0, 2.5, 3.0, 4.0)[inst % 4]
        rep = check_symmetrization(seq, p, 2.0)
        ok &= rep.status == "pass" and rep.tolerance == 1e-12
    _emit(4, ok, "symmetrization constants 1/2 and 2 exact on 100 sequences",
          time.perf_counter() - t0, 30.0)


def test_criterion_05_explicit_two_sided_constants():
    t0 = time.perf_counter()
    gen = philox(303, 0)
    ok = True
    pq = [(p, q) for p in (2.0, 2.5, 4.0) for q in (2.0, 2.5, 4.0)]
    for inst in range(30):
        p, q = pq[inst % len(pq)]
        seq = random_independent_sequence(gen, 3, {"kind": "matrix", "dims": [2, 2]}, 2)
        rep = check_pq_ge2_equivalence(seq, p, q)
        ok &= rep.status == "pass" and rep.tolerance == 1e-9
        ok &= rep.details["upper_slack"] >= -1e-9
        ok &= rep.details["lower_slack"] >= -1e-9
    _emit(5, ok, "two-sided explicit constants on 30 matrix instances, p,q in {2,2.5,4}",
          time.perf_counter() - t0, 60.0)


def test_criterion_06_scalar_rosenthal_lower():
    t0 = time.perf_counter()
    gen = philox(404, 0)
    ok = True
    for inst in range(50):
        p = (2.0, 3.0, 4.0)[inst % 3]
        seq = random_independent_sequence(gen, 2 + inst % 4, SCALAR, 2)
        rep = check_rosenthal_scalar(seq, p)
        ok &= rep.status == "pass" and rep.tolerance == 1e-12
    _emit(6, ok, "scalar two-sided lower constant 1/2 exact on 50 instances",
          time.perf_counter() - t0, 10.0)


def test_criterion_07_optimizer_vs_brute_force():
    t0 = time.perf_counter()
    gen = philox(505, 0)
    ok = True
    worst = 0.0
    plan = [(1, 1), (2, 6), (3, 6), (4, 6), (5, 4), (6, 2)]  # (case, instances) = 25
    for case, n_inst in plan:
        p, q = REGIME_POINTS[case]
        for k in range(n_inst):
            n_items = 1 if case in (1, 6) else 2
            seq = _scalar_seq(gen, n_items, real=True)
            spec = regime_select(p, q)
            v_opt = composite_norm(seq, spec, seed=k).value
            v_bf = brute_force_sum_norm(seq, spec, grid_resolution=9, levels=12)
            gap = abs(v_opt - v_bf) / max(v_bf, 1e-12)
            worst = max(worst, gap)
            ok &= gap <= 1e-3
    _emit(7, ok, f"composite optimizer vs grid oracle, worst gap {worst:.1e} on 25 instances",
          time.perf_counter() - t0, 60.0)


def test_criterion_08_duality():
    t0 = time.perf_counter()
    gen = philox(606, 0)
    ok = True
    worst = 0.0
    for case in range(1, 7):
        p, q = REGIME_POINTS[case]
        n_pairs = 34 if case <= 2 else 33
        for k in range(n_pairs):
            if case == 1 and k % 8 == 0:
                one = FiniteProbabilitySpace(("*",), np.array([1.0]))
                a = gen.standard_normal((2, 1, 2, 2)) + 1j * gen.standard_normal((2, 1, 2, 2))
                b = gen.standard_normal((2, 1, 2, 2)) + 1j * gen.standard_normal((2, 1, 2, 2))
                f = LqSequence(one, a.astype(complex))
                g = LqSequence(one, b.astype(complex))
            else:
                f = _scalar_seq(gen, 2)
                g0 = _scalar_seq(gen, 2)
                g = LqSequence(f.space, g0.values, g0.elem_space)
            res = duality_gap(f, g, p, q, seed=k)
            worst = max(worst, res["ratio"])
            ok &= res["ratio"] <= 1.0 + 1e-3
    _emit(8, ok, f"duality holds on 200 pairs across six regimes, worst ratio {worst:.4f}",
          time.perf_counter() - t0, 60.0)


def test_criterion_09_decoupling_and_identities():
    t0 = time.perf_counter()
    gen = philox(707, 0)
    ok = True
    combos = [(p, q) for p in (2.0, 3.0, 4.0) for q in (2.0, 3.0)]
    for k in range(20):
        p, q = combos[k % len(combos)]
        n_cells = 1 + k % 2
        lams = gen.uniform(0.2, 1.0, size=n_cells)
        xs = [np.array([float(gen.standard_normal())]) for _ in range(n_cells)]
        F = multi_cell_process(list(lams), xs, POINT)
        rep = check_decoupling(F, p, q, eps=1e-10, tolerance=2e-10)
        ok &= rep.status == "pass"
    # interleaved difference-sequence identities on a 3-stage exact space
    lam3 = [0.3, 0.25, 0.2]
    base = np.array([1.0])

    def stage2(counts):
        return LqElement(base * (1.0 + 0.5 * counts.get((0, 0), 0)), POINT)

    def stage3(counts):
        return LqElement(base * (1.0 - 0.25 * counts.get((1, 0), 0)
                                 + 0.1 * counts.get((0, 0), 0)), POINT)

    from itolab.integrator import SimpleAdaptedProcess
    from itolab.poisson import GridPartition
    nu = max(lam3)
    pts = np.concatenate([[0.0], np.cumsum(np.array(lam3) / nu)])
    grid = GridPartition(pts, ("A",), np.array([nu]))
    F3 = SimpleAdaptedProcess(grid, {(0, 0): LqElement(base, POINT),
                                     (1, 0): stage2, (2, 0): stage3}, POINT, (1,))
    model = build_exact_model(F3, eps=1e-6, decoupled=True)
    lam_cells = grid.intensities
    G = [model.y[k][:, 0] for k in range(3)]
    M = [model.counts[k] - lam_cells[k, 0] for k in range(3)]
    Mc = [model.counts_c[k] - lam_cells[k, 0] for k in range(3)]
    res = decoupling_difference_sequence(G, M, Mc)
    ok &= res["sum_residual"] <= 1e-14
    ok &= res["alternating_residual"] <= 1e-14
    _emit(9, ok, "deterministic decoupling on 20 grids; interleaving identities exact",
          time.perf_counter() - t0, 60.0)


def test_criterion_10_ito_isomorphism_stability():
    t0 = time.perf_counter()
    ok = True
    bands = []
    for case in range(1, 7):
        p, q = REGIME_POINTS[case]
        fam = [single_cell_process(lam, np.array([1.0]), POINT)
               for lam in (0.02, 0.2, 1.0)]
        fam.append(multi_cell_process([0.3, 0.7], [np.array([1.0]), np.array([-0.5])],
                                      POINT))
        fam.append(multi_cell_process([0.5] * 6,
                                      [np.array([(-1.0) ** k]) for k in range(6)], POINT))
        rep = check_ito_isomorphism(fam, p, q, n_samples=10_000, seed=case)
        ok &= rep.status == "pass"
        ok &= rep.details["ratio_band"] <= 16.0
        ok &= rep.details["scale_invariance_gap"] <= 1e-12
        ok &= any(m["monte_carlo"] for m in rep.details["members"])
        bands.append(rep.details["ratio_band"])
    # matrix-valued members for two regimes
    x = np.array([[1.0, 0.5], [0.0, -1.0]])
    for p, q in ((2.5, 3.0), (3.0, 1.5)):
        fam = [single_cell_process(lam, x, None) for lam in (0.05, 0.5, 1.0)]
        rep = check_ito_isomorphism(fam, p, q, n_samples=4000, seed=11)
        ok &= rep.status == "pass"
        bands.append(rep.details["ratio_band"])
    _emit(10, ok, f"ratio bands within 16 across six regimes (max {max(bands):.2f}), "
          "exact scale invariance", time.perf_counter() - t0, 300.0)


def test_criterion_11_matrix_bounds():
    t0 = time.perf_counter()
    ok = True
    laws = [("rademacher", rademacher_law()), ("gaussian", gaussian_law()),
            ("two_atom", two_atom_law(2.0, 0.2))]
    used_exact = used_mc = False
    for _, law in laws:
        for d in (2, 4, 8):
            for n in (4, 8):
                for p in (2.0, 4.0):
                    ens = MatrixEnsemble(d, d, n, law)
                    rep = bound_matrix_sum(ens, p, n_samples=10_000, seed=d * n)
                    ok &= rep.status == "pass"
                    used_exact |= not rep.details["monte_carlo"]
                    used_mc |= rep.details["monte_carlo"]
    for _, law in laws:
        for d in (2, 4, 8):
            for p in (2.0, 4.0):
                ens = MatrixEnsemble(d, d, 1, law, "entries")
                rep = bound_entry_matrix(ens, p, n_samples=10_000, seed=d)
                ok &= rep.status == "pass"
    for d in (2, 4, 8):
        lat = bound_latala(MatrixEnsemble(d, d, 1, rademacher_law(), "entries"),
                           2.0, n_samples=4_000, seed=d)
        ok &= lat.status == "report-only"
        ok &= math.isfinite(lat.details["first_ratio"])
    ok &= used_exact and used_mc
    _emit(11, ok, "matrix sum and entry bounds over laws x d x n x p; "
          "first-moment comparison emitted", time.perf_counter() - t0, 300.0)


def test_criterion_12_doob_domination():
    t0 = time.perf_counter()
    gen = philox(808, 0)
    ok = True
    for k in range(10):
        lam1, lam2 = gen.uniform(0.2, 0.9, size=2)
        bump = float(gen.uniform(0.2, 1.0))
        F = two_stage_adapted_process(float(lam1), float(lam2), np.array([1.0]),
                                      bump=bump, elem_space=POINT)
        p = (2.0, 3.0, 4.0)[k % 3]
        rep = check_doob(F, p, 2.0, n_samples=3000, seed=k)
        ok &= rep.status == "pass"
    _emit(12, ok, "running-max moment within p' of the terminal moment on 10 "
          "adapted processes", time.perf_counter() - t0, 60.0)
