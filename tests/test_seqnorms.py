import math

import numpy as np
import pytest

from itolab.lq import LqElement, point_space
from itolab.prob import FiniteProbabilitySpace, philox
from itolab.seqnorms import (LqSequence, NormExpr, RegimeSpec, composite_norm, norm_D,
                             norm_S, regime_select)
from oracles import brute_force_sum_norm, duality_gap, sequence_pairing, uniform_space

COIN = FiniteProbabilitySpace((0, 1), np.array([0.5, 0.5]))
POINT = point_space()


def scalar_seq(values) -> LqSequence:
    """items x atoms table of scalars on the fair coin."""
    vals = np.asarray(values, dtype=complex)[..., None]
    return LqSequence(COIN, vals, POINT)


def random_seq(gen, n_items, n_atoms=2, real=False) -> LqSequence:
    space = FiniteProbabilitySpace(tuple(range(n_atoms)), np.full(n_atoms, 1 / n_atoms))
    vals = gen.standard_normal((n_items, n_atoms, 1))
    if not real:
        vals = vals + 1j * gen.standard_normal((n_items, n_atoms, 1))
    return LqSequence(space, vals.astype(complex), POINT)


def test_norm_S_single_deterministic_scalar():
    seq = scalar_seq([[1.7, 1.7]])
    for q in (1.5, 2.0, 4.0):
        assert norm_S(seq, q) == pytest.approx(1.7, rel=1e-12)


def test_norm_S_pair_with_negation():
    f = np.array([[0.8, -1.1]])
    seq = scalar_seq(np.concatenate([f, -f]))
    single = scalar_seq(f)
    for q in (1.5, 3.0):
        assert norm_S(seq, q) == pytest.approx(math.sqrt(2) * norm_S(single, q), rel=1e-12)


def test_norm_S_matrix_unit_sides():
    e12 = np.zeros((1, 1, 2, 2), dtype=complex)
    e12[0, 0, 0, 1] = 1.0
    one = FiniteProbabilitySpace(("*",), np.array([1.0]))
    seq = LqSequence(one, e12)
    for q in (1.5, 2.0, 4.0):
        assert norm_S(seq, q, "column") == pytest.approx(1.0, rel=1e-12)
        assert norm_S(seq, q, "row") == pytest.approx(1.0, rel=1e-12)


def test_norm_D_deterministic():
    seq = scalar_seq([[2.0, 2.0]])
    for p in (1.5, 2.0, 3.0):
        assert norm_D(seq, p, 2.0) == pytest.approx(2.0, rel=1e-12)
    n = 5
    seq_n = scalar_seq([[2.0, 2.0]] * n)
    assert norm_D(seq_n, 3.0, 2.0) == pytest.approx(n ** (1 / 3) * 2.0, rel=1e-12)


def test_norm_D_two_atom_hand_enumeration():
    seq = scalar_seq([[1.0, -3.0]])
    # (0.5 |1|^2 + 0.5 |3|^2)^(1/2)
    assert norm_D(seq, 2.0, 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_regime_select_cases():
    assert regime_select(3.0, 2.5).case_id == 1
    assert regime_select(2.5, 3.0).case_id == 2
    assert regime_select(1.5, 3.0).case_id == 3
    assert regime_select(3.0, 1.5).case_id == 4
    assert regime_select(1.8, 1.5).case_id == 5
    assert regime_select(1.5, 1.8).case_id == 6
    assert regime_select(2.0, 2.0).case_id == 1
    spec = regime_select(1.5, 3.0)
    assert spec.tree.op == "sum"
    spec_nc = regime_select(3.0, 2.5, "noncommutative")
    names = [c.name for c in spec_nc.tree.children]
    assert names == ["S_c", "S_r", "D_qq", "D_pq"]


def test_regime_boundary_coincidence_p2q2():
    # at p = q = 2 every case tree evaluates to the same value
    gen = philox(3, 0)
    seq = random_seq(gen, 2)
    values = []
    for case_pq in [(2.0, 2.0)]:
        for case_id in range(1, 7):
            # rebuild each case's tree at p=q=2 by reusing the selector on
            # representative points, then swapping in p=q=2
            rep = {1: (3.0, 2.5), 2: (2.5, 3.0), 3: (1.5, 3.0),
                   4: (3.0, 1.5), 5: (1.8, 1.5), 6: (1.5, 1.8)}[case_id]
            tree = regime_select(*rep).tree
            spec = RegimeSpec(case_id, 2.0, 2.0, tree)
            values.append(composite_norm(seq, spec, seed=1).value)
    ref = values[0]
    for v in values[1:]:
        assert v == pytest.approx(ref, rel=2e-4)


def test_composite_zero_sequence():
    seq = scalar_seq([[0.0, 0.0]])
    spec = regime_select(1.5, 1.8)
    res = composite_norm(seq, spec)
    assert res.value == 0.0


def test_composite_pure_intersection_is_max():
    gen = philox(5, 0)
    seq = random_seq(gen, 2)
    spec = regime_select(3.0, 2.5)
    res = composite_norm(seq, spec)
    expected = max(norm_S(seq, 2.5), norm_D(seq, 2.5, 2.5), norm_D(seq, 3.0, 2.5))
    assert res.value == pytest.approx(expected, rel=1e-12)


def test_composite_two_norm_toy_vs_grid():
    # X + Y on a two-dimensional toy: one atom, one item, 2-vector
    one = FiniteProbabilitySpace(("*",), np.array([1.0]))
    es = uniform_space(2, total=2.0)
    vals = np.array([[[1.0, 0.25]]], dtype=complex)
    seq = LqSequence(one, vals, es)
    tree = NormExpr("sum", None, (NormExpr("atom", "D_qq"), NormExpr("atom", "D_pq")))
    spec = RegimeSpec(0, 4.0, 1.2, tree)
    res = composite_norm(seq, spec, seed=2)
    assert res.value <= min(norm_D(seq, 1.2, 1.2), norm_D(seq, 4.0, 1.2)) + 1e-9
    bf = brute_force_sum_norm(seq, spec)
    assert res.value == pytest.approx(bf, rel=1e-3, abs=1e-6)


def test_composite_monotone_in_summands():
    gen = philox(6, 0)
    seq = random_seq(gen, 1, real=True)
    two = NormExpr("sum", None, (NormExpr("atom", "S"), NormExpr("atom", "D_pq")))
    three = NormExpr("sum", None, (NormExpr("atom", "S"), NormExpr("atom", "D_qq"),
                                   NormExpr("atom", "D_pq")))
    v2 = composite_norm(seq, RegimeSpec(0, 2.5, 1.5, two), seed=4).value
    v3 = composite_norm(seq, RegimeSpec(0, 2.5, 1.5, three), seed=4).value
    assert v3 <= v2 * (1 + 1e-3)


def test_composite_upper_bounds_every_feasible_decomposition():
    gen = philox(8, 0)
    seq = random_seq(gen, 1)
    spec = regime_select(1.5, 1.8)
    res = composite_norm(seq, spec, seed=3)
    k = len(spec.tree.children)
    funcs = [c for c in spec.tree.children]
    from itolab.seqnorms import node_functional, sequence_atom
    fns = [node_functional(c, lambda name: sequence_atom(name, seq, 1.5, 1.8))
           for c in funcs]
    for trial in range(100):
        parts = gen.standard_normal((k,) + seq.values.shape) \
            + 1j * gen.standard_normal((k,) + seq.values.shape)
        parts[-1] = seq.values - parts[:-1].sum(axis=0)
        cost = sum(fn.value(parts[j]) for j, fn in enumerate(fns))
        assert cost >= res.value - 1e-7 * max(res.value, 1.0)


def test_composite_exact_power_of_two_homogeneity():
    gen = philox(9, 0)
    seq = random_seq(gen, 2)
    spec = regime_select(1.5, 1.8)
    v = composite_norm(seq, spec, seed=5).value
    v_scaled = composite_norm(seq.scaled(8.0), spec, seed=5).value
    assert v_scaled == 8.0 * v  # bitwise, power-of-two normalization


def test_brute_force_trivial_cases():
    seq = scalar_seq([[0.0, 0.0]])
    tree = NormExpr("sum", None, (NormExpr("atom", "D_qq"), NormExpr("atom", "D_pq")))
    spec = RegimeSpec(0, 2.5, 1.5, tree)
    assert brute_force_sum_norm(seq, spec) == 0.0
    # X + Y with X = Y: splitting cannot beat the single norm
    seq2 = scalar_seq([[1.0, -0.5]])
    tree_same = NormExpr("sum", None, (NormExpr("atom", "D_pq"), NormExpr("atom", "D_pq")))
    spec2 = RegimeSpec(0, 2.5, 1.5, tree_same)
    assert brute_force_sum_norm(seq2, spec2) == pytest.approx(
        norm_D(seq2, 2.5, 1.5), rel=1e-6)


def test_brute_force_agrees_with_optimizer():
    gen = philox(10, 0)
    for trial in range(4):
        seq = random_seq(gen, 1, real=True)
        spec = regime_select(1.8, 1.5)
        v_opt = composite_norm(seq, spec, seed=trial).value
        v_bf = brute_force_sum_norm(seq, spec)
        assert v_opt == pytest.approx(v_bf, rel=2e-3, abs=1e-8)


def test_brute_force_dimension_cap():
    gen = philox(11, 0)
    seq = random_seq(gen, 3, real=True)  # free dim 2 * 6 = 12 for a 3-sum
    spec = regime_select(1.5, 1.8)
    with pytest.raises(Exception):
        brute_force_sum_norm(seq, spec)


def test_duality_zero_and_self():
    f = scalar_seq([[1.0, 1.0]])
    g = scalar_seq([[0.0, 0.0]])
    res = duality_gap(f, g, 2.0, 2.0)
    assert res["pairing"] == 0
    assert res["ratio"] == 0.0
    one = FiniteProbabilitySpace(("*",), np.array([1.0]))
    h = LqSequence(one, np.array([[[1.0]]], dtype=complex), POINT)
    res2 = duality_gap(h, h, 2.0, 2.0)
    assert res2["pairing"] == pytest.approx(1.0)
    assert res2["bound"] == pytest.approx(1.0, rel=1e-9)
    assert res2["ratio"] == pytest.approx(1.0, rel=1e-9)


def test_duality_random_pairs():
    gen = philox(12, 0)
    for p, q in [(3.0, 2.5), (1.5, 3.0), (1.8, 1.5)]:
        for _ in range(5):
            f = random_seq(gen, 2)
            g = random_seq(gen, 2)
            # pairing needs a common probability space
            g = LqSequence(f.space, g.values, g.elem_space)
            res = duality_gap(f, g, p, q, seed=1)
            assert res["ratio"] <= 1.001


def test_homogeneity_all_plain_norms():
    gen = philox(13, 0)
    seq = random_seq(gen, 3)
    c = 3.7 - 1.2j
    for q in (1.5, 2.0, 3.0):
        assert norm_S(seq.scaled(c), q) == pytest.approx(abs(c) * norm_S(seq, q), rel=1e-12)
        assert norm_D(seq.scaled(c), 2.5, q) == pytest.approx(
            abs(c) * norm_D(seq, 2.5, q), rel=1e-12)


def test_single_mean_zero_item_S2_equals_D22():
    gen = philox(14, 0)
    vals = gen.standard_normal((1, 2, 1)) + 1j * gen.standard_normal((1, 2, 1))
    vals[0, 1] = -vals[0, 0]  # mean zero on the fair coin
    seq = LqSequence(COIN, vals.astype(complex), POINT)
    assert norm_S(seq, 2.0) == pytest.approx(norm_D(seq, 2.0, 2.0), rel=1e-10)


def test_sequence_pairing_matrix_trace():
    one = FiniteProbabilitySpace(("*",), np.array([1.0]))
    gen = philox(15, 0)
    a = gen.standard_normal((1, 1, 2, 3)) + 1j * gen.standard_normal((1, 1, 2, 3))
    b = gen.standard_normal((1, 1, 3, 2)) + 1j * gen.standard_normal((1, 1, 3, 2))
    f = LqSequence(one, a.astype(complex))
    g = LqSequence(one, b.astype(complex))
    expected = np.trace(a[0, 0] @ b[0, 0])
    assert sequence_pairing(f, g) == pytest.approx(expected, abs=1e-12)
