import math

import numpy as np
import pytest

from itolab.checks import (ConstantTable, buchholz_even, c_pd, c_pq,
                           check_decoupling, check_doob, check_hoffmann_jorgensen,
                           check_ito_isomorphism, check_kahane, check_khintchine,
                           check_pq_ge2_equivalence, check_rosenthal_lq,
                           check_rosenthal_positive, check_rosenthal_scalar,
                           check_symmetrization, check_type_cotype, kahane_kappa,
                           khintchine_upper)
from itolab.instances import (bernoulli_sequence, multi_cell_process,
                              random_element, random_independent_sequence,
                              random_positive_sequence, single_cell_process,
                              two_stage_adapted_process)
from itolab.lq import LqElement, point_space, uniform_space
from itolab.prob import FiniteProbabilitySpace, RandomLqVariable, philox
from itolab.seqnorms import LqSequence

ES = point_space()
SCALAR = {"kind": "commutative", "weights": [1.0]}
MAT22 = {"kind": "matrix", "dims": [2, 2]}


def test_constant_table_values():
    assert kahane_kappa(4.0, 2.0) == pytest.approx(math.sqrt(3.0))
    assert kahane_kappa(2.0, 4.0) == 1.0
    assert buchholz_even(2) == pytest.approx(1.0)
    assert buchholz_even(4) == pytest.approx(3.0 ** 0.25)
    assert khintchine_upper(2.0, 4.0) == pytest.approx(3.0 ** 0.25)
    assert khintchine_upper(2.0, 3.0) <= math.sqrt(3.0)
    assert khintchine_upper(4.0, 2.0) == pytest.approx(math.sqrt(3.0))
    assert c_pq(2.0, 2.0) == pytest.approx(2.0)
    assert c_pd(4.0, 2) == pytest.approx(math.e * math.sqrt(2.0) * math.sqrt(3.0))
    assert c_pd(2.0, 10 ** 4) == pytest.approx(math.e * math.sqrt(2.0))


def test_khintchine_single_element_ratio_one():
    gen = philox(1, 0)
    x = random_element(gen, MAT22)
    rep = check_khintchine([x], 2.0, 3.0)
    assert rep.status == "pass"
    assert rep.lhs == pytest.approx(rep.details["column"], rel=1e-9) or \
        rep.lhs == pytest.approx(rep.details["row"], rel=1e-9)


def test_khintchine_parseval_equality():
    # orthonormal coordinates of l_2: exact equality at p = q = 2
    es = uniform_space(3, total=3.0)
    xs = [LqElement(np.eye(3)[k].astype(complex), es) for k in range(3)]
    rep = check_khintchine(xs, 2.0, 2.0)
    assert rep.status == "pass"
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)


def test_khintchine_random_matrices_against_table():
    gen = philox(2, 0)
    for q in (2.0, 3.0, 4.0):
        xs = [random_element(gen, MAT22) for _ in range(6)]
        rep = check_khintchine(xs, 4.0, q)
        assert rep.status == "pass"
        assert rep.constant == pytest.approx(khintchine_upper(4.0, q))


def test_khintchine_q_below_two():
    gen = philox(3, 0)
    xs = [random_element(gen, MAT22) for _ in range(3)]
    rep = check_khintchine(xs, 2.0, 1.5)
    assert rep.status == "pass"
    assert "reverse_ratio" in rep.details


def test_symmetrization_symmetric_law_ratio_one():
    # symmetric two-atom items: randomization leaves the law invariant
    space = FiniteProbabilitySpace((0, 1), np.array([0.5, 0.5]))
    vals = np.array([[1.0], [-1.0]], dtype=complex)
    item = RandomLqVariable(space, vals, ES)
    from itolab.prob import independent_product
    _, lifted = independent_product([item, item])
    seq = LqSequence.from_variables(lifted)
    rep = check_symmetrization(seq, 3.0, 2.0)
    assert rep.status == "pass"
    assert rep.details["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_symmetrization_zero_sequence():
    space = FiniteProbabilitySpace((0,), np.array([1.0]))
    seq = LqSequence(space, np.zeros((2, 1, 1), dtype=complex), ES)
    rep = check_symmetrization(seq, 2.0, 2.0)
    assert rep.status == "pass"


def test_symmetrization_random_sequences():
    gen = philox(4, 0)
    for _ in range(10):
        seq = random_independent_sequence(gen, 3, SCALAR, 3)
        rep = check_symmetrization(seq, 2.5, 2.0)
        assert rep.status == "pass"


def test_kahane_trivial_ratios():
    gen = philox(5, 0)
    xs = [random_element(gen, SCALAR) for _ in range(4)]
    rep_same = check_kahane(xs, 3.0, 3.0)
    assert rep_same.details["ratio"] == pytest.approx(1.0, rel=1e-12)
    rep_single = check_kahane(xs[:1], 4.0, 2.0)
    assert rep_single.details["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_kahane_scalar_bound():
    gen = philox(6, 0)
    for _ in range(10):
        xs = [random_element(gen, SCALAR) for _ in range(6)]
        rep = check_kahane(xs, 4.0, 2.0)
        assert rep.status == "pass"
        assert rep.constant == pytest.approx(math.sqrt(3.0))


def test_rosenthal_scalar_single_item():
    gen = philox(7, 0)
    seq = random_independent_sequence(gen, 1, SCALAR, 2)
    rep = check_rosenthal_scalar(seq, 3.0)
    assert rep.status == "pass"


def test_rosenthal_scalar_iid_signs_p2():
    n = 5
    items = []
    for _ in range(n):
        space = FiniteProbabilitySpace((0, 1), np.array([0.5, 0.5]))
        vals = np.array([[1.0], [-1.0]], dtype=complex)
        items.append(RandomLqVariable(space, vals, ES))
    from itolab.prob import independent_product
    _, lifted = independent_product(items)
    seq = LqSequence.from_variables(lifted)
    rep = check_rosenthal_scalar(seq, 2.0)
    # orthogonality: moment = sqrt(n) = both terms
    assert rep.rhs == pytest.approx(math.sqrt(n), rel=1e-12)
    assert rep.lhs == pytest.approx(math.sqrt(n), rel=1e-12)
    assert rep.status == "pass"


def test_rosenthal_scalar_five_two_atom_items():
    gen = philox(8, 0)
    for _ in range(5):
        seq = random_independent_sequence(gen, 5, SCALAR, 2)
        rep = check_rosenthal_scalar(seq, 3.0)
        assert rep.status == "pass"


def test_rosenthal_scalar_requires_p_ge_2():
    gen = philox(9, 0)
    seq = random_independent_sequence(gen, 2, SCALAR, 2)
    with pytest.raises(Exception):
        check_rosenthal_scalar(seq, 1.5)


def test_rosenthal_positive_deterministic_ratio_one():
    space = FiniteProbabilitySpace((0,), np.array([1.0]))
    vals = np.ones((3, 1, 1), dtype=complex)
    seq = LqSequence(space, vals, ES)
    rep = check_rosenthal_positive(seq, 3.0)
    assert rep.details["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_rosenthal_positive_single_item():
    gen = philox(10, 0)
    seq = random_positive_sequence(gen, 1, 2)
    rep = check_rosenthal_positive(seq, 3.0)
    assert rep.details["ratio"] <= 1.0 + 1e-12


def test_rosenthal_positive_bernoulli_envelope():
    ratios = []
    for lam in (0.01, 0.1, 0.5):
        seq = bernoulli_sequence([lam] * 4)
        rep = check_rosenthal_positive(seq, 3.0)
        ratios.append(rep.details["ratio"])
    assert all(math.isfinite(r) and r > 0 for r in ratios)


def test_hoffmann_jorgensen_reports():
    gen = philox(11, 0)
    seq = random_independent_sequence(gen, 1, SCALAR, 2)
    rep = check_hoffmann_jorgensen(seq, 4.0, 2.0)
    assert rep.status == "report-only"
    assert math.isfinite(rep.details["ratio"])


def test_hoffmann_jorgensen_zero_degenerate():
    space = FiniteProbabilitySpace((0,), np.array([1.0]))
    seq = LqSequence(space, np.zeros((2, 1, 1), dtype=complex), ES)
    rep = check_hoffmann_jorgensen(seq, 4.0, 2.0)
    assert rep.status == "pass"
    assert "degenerate" in rep.details["note"]


def test_hoffmann_jorgensen_stability_across_n():
    # iid two-atom items: the ratio moves by less than a factor 4 over n
    space = FiniteProbabilitySpace((0, 1), np.array([0.5, 0.5]))
    vals = np.array([[1.0], [-1.0]], dtype=complex)
    ratios = []
    from itolab.prob import independent_product
    for n in (2, 4, 6):
        items = [RandomLqVariable(space, vals, ES) for _ in range(n)]
        _, lifted = independent_product(items)
        seq = LqSequence.from_variables(lifted)
        rep = check_hoffmann_jorgensen(seq, 4.0, 2.0)
        ratios.append(rep.details["ratio"])
    assert max(ratios) / min(ratios) < 4.0


def test_hoffmann_jorgensen_configured_constant():
    gen = philox(12, 0)
    seq = random_independent_sequence(gen, 4, SCALAR, 2)
    table = ConstantTable(hj_factor=10.0)
    rep = check_hoffmann_jorgensen(seq, 4.0, 2.0, table=table)
    assert rep.status == "pass"
    assert rep.provenance == "configured"


def test_pq_ge2_single_deterministic():
    space = FiniteProbabilitySpace((0, 1), np.array([0.5, 0.5]))
    x = np.array([[1.0, 0.5], [0.0, -1.0]])
    vals = np.stack([x, -x])[None, ...].astype(complex)
    seq = LqSequence(space, vals)
    rep = check_pq_ge2_equivalence(seq, 2.0, 2.0)
    assert rep.status == "pass"


def test_pq_ge2_commutative_signs_orthogonality():
    space = FiniteProbabilitySpace((0, 1), np.array([0.5, 0.5]))
    from itolab.prob import independent_product
    items = [RandomLqVariable(space, np.array([[1.0], [-1.0]], dtype=complex), ES)
             for _ in range(4)]
    _, lifted = independent_product(items)
    seq = LqSequence.from_variables(lifted)
    rep = check_pq_ge2_equivalence(seq, 2.0, 2.0)
    assert rep.status == "pass"
    assert rep.details["moment"] == pytest.approx(2.0, rel=1e-12)  # sqrt(4)


def test_pq_ge2_random_matrix_instances():
    gen = philox(13, 0)
    for p, q in [(4.0, 4.0), (2.5, 4.0), (4.0, 2.5)]:
        seq = random_independent_sequence(gen, 4, MAT22, 2)
        rep = check_pq_ge2_equivalence(seq, p, q)
        assert rep.status == "pass", (p, q, rep.details)


def test_rosenthal_lq_single_symmetric_item_p2q2():
    space = FiniteProbabilitySpace((0, 1), np.array([0.5, 0.5]))
    vals = np.array([[[1.0]], [[-1.0]]], dtype=complex).reshape(1, 2, 1)
    seq = LqSequence(space, vals, ES)
    rep = check_rosenthal_lq(seq, 2.0, 2.0)
    assert rep.status == "pass"
    assert rep.details["ratio"] == pytest.approx(1.0, rel=1e-6)


def test_rosenthal_lq_case1_passes():
    gen = philox(14, 0)
    seq = random_independent_sequence(gen, 3, SCALAR, 2)
    rep = check_rosenthal_lq(seq, 3.5, 2.5)
    assert rep.status == "pass"
    assert rep.case_id == "1"
    assert rep.details["explicit_two_sided"] == "pass"


def test_rosenthal_lq_small_pq_passes():
    gen = philox(15, 0)
    seq = random_independent_sequence(gen, 3, SCALAR, 2)
    rep = check_rosenthal_lq(seq, 1.5, 1.8)
    assert rep.status == "pass"
    assert rep.case_id == "6"


def test_rosenthal_lq_mixed_report_only():
    gen = philox(16, 0)
    seq = random_independent_sequence(gen, 3, SCALAR, 2)
    rep = check_rosenthal_lq(seq, 1.5, 3.0)
    assert rep.status == "report-only"
    assert math.isfinite(rep.details["ratio"])


def test_rosenthal_lq_exact_scale_invariance():
    gen = philox(17, 0)
    seq = random_independent_sequence(gen, 2, SCALAR, 2)
    r1 = check_rosenthal_lq(seq, 1.8, 1.5, seed=3).details["ratio"]
    r2 = check_rosenthal_lq(seq.scaled(1024.0), 1.8, 1.5, seed=3).details["ratio"]
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_type_cotype_envelopes():
    gen = philox(18, 0)
    for q in (1.5, 3.0):
        es = {"kind": "commutative", "weights": [1.0, 1.0, 1.0]}
        xs = [random_element(gen, es) for _ in range(5)]
        rep = check_type_cotype(xs, q)
        assert rep.status == "report-only"
        assert rep.details["type_ratio"] > 0
        assert rep.details["cotype_ratio"] > 0


def test_decoupling_deterministic_ratio_one():
    F = multi_cell_process([0.4, 0.7], [np.array([1.0]), np.array([-1.5])], ES)
    rep = check_decoupling(F, 3.0, 2.0)
    assert rep.status == "pass"
    assert rep.details["ratio"] == pytest.approx(1.0, abs=1e-8)


def test_decoupling_zero_process():
    from itolab.integrator import SimpleAdaptedProcess
    from itolab.poisson import GridPartition
    grid = GridPartition(np.array([0.0, 1.0]), ("A",), np.array([0.5]))
    F = SimpleAdaptedProcess(grid, {}, ES, (1,))
    rep = check_decoupling(F, 2.0, 2.0)
    assert rep.status == "pass"
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_decoupling_adapted_reported():
    F = two_stage_adapted_process(0.4, 0.3, np.array([1.0]), bump=0.8, elem_space=ES)
    rep = check_decoupling(F, 2.0, 2.0, eps=1e-7)
    assert rep.status == "report-only"
    assert math.isfinite(rep.details["ratio"]) and rep.details["ratio"] > 0
    table = ConstantTable(umd_constant=4.0)
    rep2 = check_decoupling(F, 2.0, 2.0, eps=1e-7, table=table)
    assert rep2.status == "pass"


def test_ito_isomorphism_single_cell_p2q2():
    F = single_cell_process(0.5, np.array([1.0]), ES)
    rep = check_ito_isomorphism([F], 2.0, 2.0)
    assert rep.status == "pass"
    member = rep.details["members"][0]
    assert member["R"] == pytest.approx(1.0, rel=1e-6)


def test_ito_isomorphism_scale_invariance_and_band():
    fam = [single_cell_process(lam, np.array([1.0]), ES) for lam in (0.01, 0.1, 1.0)]
    rep = check_ito_isomorphism(fam, 4.0, 2.0)
    assert rep.details["scale_invariance_gap"] <= 1e-12
    assert rep.details["ratio_band"] <= 16.0
    assert rep.status == "pass"


def test_ito_isomorphism_certificates_show_crossover():
    # small lam: terminal-sum term dominates; lam ~ 1: square-function term
    from itolab.integrator import process_norm
    p, q = 4.0, 2.0
    lo = single_cell_process(0.01, np.array([1.0]), ES)
    hi = single_cell_process(1.0, np.array([1.0]), ES)
    lam_lo, lam_hi = 0.01, 1.0
    s_lo, dpq_lo = lam_lo ** 0.5, lam_lo ** (1 / p)
    s_hi, dpq_hi = lam_hi ** 0.5, lam_hi ** (1 / p)
    v_lo = process_norm(lo, 1.0, None, p, q, "I_regime", 1e-5)
    v_hi = process_norm(hi, 1.0, None, p, q, "I_regime", 1e-5)
    assert v_lo == pytest.approx(max(s_lo, dpq_lo), rel=1e-6)  # D_pq dominant
    assert v_hi == pytest.approx(max(s_hi, dpq_hi), rel=1e-6)
    assert dpq_lo > s_lo and s_hi >= dpq_hi


def test_doob_check_instances():
    gen = philox(19, 0)
    for k in range(3):
        lams = gen.uniform(0.2, 0.9, size=3)
        xs = [np.array([float(gen.standard_normal())]) for _ in range(3)]
        F = multi_cell_process(list(lams), xs, ES)
        rep = check_doob(F, 3.0, 2.0, n_samples=2000, seed=k)
        assert rep.status == "pass"


def test_reports_stable_under_atom_permutation():
    gen = philox(20, 0)
    seq = random_independent_sequence(gen, 2, SCALAR, 3)
    rep1 = check_symmetrization(seq, 2.5, 2.0)
    # permute the atoms of the product space consistently
    perm = np.array([2, 0, 1, 5, 3, 4, 8, 6, 7])
    space = FiniteProbabilitySpace(tuple(range(9)),
                                   seq.space.probs[perm])
    seq_perm = LqSequence(space, seq.values[:, perm, :], ES)
    rep2 = check_symmetrization(seq_perm, 2.5, 2.0)
    assert rep1.status == rep2.status
    assert rep1.lhs == pytest.approx(rep2.lhs, rel=1e-12)


def test_ito_isomorphism_scale_gap_can_fail(monkeypatch):
    # a process norm that is not homogeneous must show in the gap: R(32 F)
    # is measured on its own table, not on a renormalised copy of member 0
    import itolab.integrator as integrator
    exact_norm = integrator.process_norm
    monkeypatch.setattr(integrator, "process_norm",
                        lambda *a, **k: exact_norm(*a, **k) + 1e-6)
    fam = [single_cell_process(0.3, np.array([1.0]), ES)]
    rep = check_ito_isomorphism(fam, 4.0, 2.0)
    assert rep.details["scale_invariance_gap"] > 1e-7
    assert rep.status == "fail"


def _has_nan(v) -> bool:
    if isinstance(v, dict):
        return any(map(_has_nan, v.values()))
    if isinstance(v, (list, tuple)):
        return any(map(_has_nan, v))
    return isinstance(v, float) and math.isnan(v)


@pytest.mark.parametrize("values", [[0.0], [0.0, 0.0], [0.0, 1.0]],
                         ids=["one-zero", "all-zero", "zero-first"])
def test_ito_isomorphism_zero_member_fails_without_nan(values):
    # a zero first member has R = inf: the row fails instead of dividing by
    # its zero norm, and an all-zero family's band is inf, not inf / inf
    fam = [single_cell_process(lam, np.array([v]), ES)
           for lam, v in zip((0.3, 0.6), values)]
    rep = check_ito_isomorphism(fam, 3.0, 2.0)
    assert rep.status == "fail"
    assert rep.details["ratio_band"] == math.inf
    assert not _has_nan([rep.lhs, rep.rhs, rep.constant, rep.details])
