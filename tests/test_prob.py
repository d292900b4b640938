import math

import numpy as np
import pytest

from itolab.lq import InvalidInputError, LqElement, point_space, uniform_space
from itolab.prob import (BudgetExceededError, FiniteProbabilitySpace,
                         RandomLqVariable, centered_poisson_moment,
                         deterministic_variable, exact_moment,
                         independent_product, moment_ci, philox, product_space,
                         rademacher_space, sample, sign_matrix, truncated_poisson)

RNG = np.random.default_rng(7)


def coin():
    return FiniteProbabilitySpace(("h", "t"), np.array([0.5, 0.5]))


def test_product_two_coins():
    prod = product_space([coin(), coin()])
    assert prod.n_atoms == 4
    assert np.allclose(prod.probs, 0.25)
    assert set(prod.atoms) == {("h", "h"), ("h", "t"), ("t", "h"), ("t", "t")}


def test_product_with_one_atom_space():
    one = FiniteProbabilitySpace(("*",), np.array([1.0]))
    prod = product_space([coin(), one])
    assert prod.n_atoms == 2
    assert np.allclose(sorted(prod.probs), [0.5, 0.5])


def test_product_marginals_oracle():
    spaces = [FiniteProbabilitySpace(tuple(range(3)), p / p.sum())
              for p in (np.array([1.0, 2.0, 3.0]), np.array([5.0, 1.0, 4.0]),
                        np.array([2.0, 2.0, 1.0]))]
    prod = product_space(spaces)
    assert prod.n_atoms == 27
    for k, s in enumerate(spaces):
        idx = prod.factor_indices(k)
        marg = np.array([prod.probs[idx == a].sum() for a in range(3)])
        assert np.abs(marg - s.probs).max() < 1e-15


def test_product_budget_error():
    big = FiniteProbabilitySpace(tuple(range(200)), np.full(200, 1 / 200))
    with pytest.raises(BudgetExceededError):
        product_space([big] * 5, budget=10 ** 6)


def test_rademacher_space_small():
    r1 = rademacher_space(1)
    assert set(r1.atoms) == {(1,), (-1,)}
    assert np.allclose(r1.probs, 0.5)
    r3 = rademacher_space(3)
    assert r3.n_atoms == 8
    assert np.allclose(r3.probs, 1 / 8)
    signs = np.array(r3.atoms, dtype=float)
    assert np.allclose(r3.expectation(signs), 0.0)


def test_rademacher_budget():
    with pytest.raises(BudgetExceededError):
        rademacher_space(25)


def test_exact_moment_deterministic():
    x = LqElement(RNG.standard_normal((2, 2)) + 0j)
    X = deterministic_variable(coin(), x)
    from itolab.lq import norm_q
    for p in (1.0, 2.5, 4.0):
        for q in (1.0, 3.0):
            assert exact_moment(X, p, q) == pytest.approx(norm_q(x, q), rel=1e-12)


def test_exact_moment_single_rademacher():
    x = LqElement(np.array([1.5, -2.0]), uniform_space(2))
    space = rademacher_space(1)
    vals = np.array([x.values, -x.values])
    X = RandomLqVariable(space, vals, x.space)
    from itolab.lq import norm_q
    for p in (1.0, 3.0):
        assert exact_moment(X, p, 2.0) == pytest.approx(norm_q(x, 2.0), rel=1e-12)


def test_exact_moment_two_rademachers_hand_sum():
    # orthogonal unit coordinates of l_q^2, p = q: hand enumeration of 4 signs
    q = 3.0
    space = rademacher_space(2)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    es = uniform_space(2, total=2.0)  # weights (1, 1)
    vals = np.stack([s[0] * e1 + s[1] * e2 for s in space.atoms]).astype(complex)
    X = RandomLqVariable(space, vals, es)
    # oracle: each sign pattern gives |±1|^q + |±1|^q = 2, so moment = 2^(1/q)
    hand = (0.25 * sum((1 + 1) ** (q / q) for _ in range(4))) ** (1 / q)
    assert exact_moment(X, q, q) == pytest.approx(hand, rel=1e-12)
    assert exact_moment(X, q, q) == pytest.approx(2 ** (1 / q), rel=1e-12)


def test_exact_moment_permutation_invariance():
    items = []
    for k in range(3):
        space = FiniteProbabilitySpace((0, 1), np.array([0.3, 0.7]))
        vals = RNG.standard_normal((2, 1)) + 1j * RNG.standard_normal((2, 1))
        items.append(RandomLqVariable(space, vals.astype(complex), point_space()))
    _, lifted = independent_product(items)
    total = lifted[0] + lifted[1] + lifted[2]
    m1 = exact_moment(total, 3.0, 2.0)
    _, lifted_perm = independent_product([items[2], items[0], items[1]])
    total_perm = lifted_perm[0] + lifted_perm[1] + lifted_perm[2]
    assert m1 == pytest.approx(exact_moment(total_perm, 3.0, 2.0), rel=1e-12)


def test_odd_moments_vanish_under_enumeration():
    n = 4
    signs = sign_matrix(n)
    xs = RNG.standard_normal(n)
    sums = signs @ xs
    for k in (1, 3, 5):
        assert abs((sums ** k).mean()) < 1e-12


def test_truncated_poisson_zero_lambda():
    tp = truncated_poisson(0.0, 1e-10)
    assert tp.cutoff == 0
    assert np.allclose(tp.probs, [1.0])


def test_truncated_poisson_mass():
    tp = truncated_poisson(1.0, 1e-12)
    assert tp.tail_bound <= 1e-12
    assert tp.probs.sum() == pytest.approx(1.0, abs=1e-14)
    assert tp.renormalized


def test_truncated_poisson_mean_oracle():
    lam = 0.5
    tp = truncated_poisson(lam, 1e-14)
    # direct series oracle for the truncated-and-renormalized mean
    ks = np.arange(tp.cutoff + 1)
    pmf = np.exp(-lam) * lam ** ks / np.array([math.factorial(k) for k in ks])
    oracle = float((ks * pmf).sum() / pmf.sum())
    assert tp.mean() == pytest.approx(oracle, abs=1e-14)
    assert tp.mean() == pytest.approx(lam, abs=1e-10)


def test_centered_moment_p2_is_lambda():
    for lam in np.geomspace(1e-4, 1.0, 30):
        assert centered_poisson_moment(2.0, lam) == pytest.approx(lam, abs=1e-10)


def test_centered_moment_lambda_zero():
    for p in (1.0, 2.0, 3.7):
        assert centered_poisson_moment(p, 0.0) == 0.0


def test_centered_moment_p4_vs_mgf_oracle():
    # oracle: fourth derivative of the generating identity, expanded symbolically
    import sympy as sp
    t, lam = sp.symbols("t lam")
    mgf = sp.exp(lam * (sp.exp(t) - 1 - t))
    mu4 = sp.diff(mgf, t, 4).subs(t, 0)
    mu4_at_1 = float(mu4.subs(lam, 1))
    assert mu4_at_1 == pytest.approx(4.0, abs=1e-12)
    assert centered_poisson_moment(4.0, 1.0) == pytest.approx(mu4_at_1, abs=1e-9)


def test_centered_moment_truncation_bound_dominates():
    p, lam = 3.3, 0.8
    val, info = centered_poisson_moment(p, lam, eps=1e-6, details=True)
    # recompute with 5 more terms by tightening eps until the cutoff grows
    eps = 1e-6
    target = info["cutoff"] + 5
    while True:
        eps /= 10
        val2, info2 = centered_poisson_moment(p, lam, eps=eps, details=True)
        if info2["cutoff"] >= target:
            break
    assert abs(val2 - val) <= info["tail_bound"]
    # monotone: tighter eps never increases the distance to the limit
    vals = [centered_poisson_moment(p, lam, eps=e) for e in (1e-4, 1e-6, 1e-8, 1e-12)]
    diffs = [abs(v - vals[-1]) for v in vals]
    assert all(diffs[i] >= diffs[i + 1] - 1e-15 for i in range(len(diffs) - 1))


def test_sample_deterministic_streams():
    s1 = sample(coin(), seed=42, n=50)
    s2 = sample(coin(), seed=42, n=50)
    assert list(s1) == list(s2)
    s3 = sample(coin(), seed=42, n=50, stream=1)
    assert list(s1) != list(s3)


def test_sample_fair_coin_clt_band():
    n = 10 ** 5
    draws = sample(coin(), seed=7, n=n)
    mean = np.mean(draws == "h")
    assert abs(mean - 0.5) <= 3 * 0.5 / math.sqrt(n)


def test_sample_truncated_poisson_vs_series():
    lam, n = 0.3, 10 ** 5
    tp = truncated_poisson(lam, 1e-12)
    draws = sample(tp, seed=11, n=n).astype(float)
    emp = ((draws - lam) ** 2).mean()
    target = centered_poisson_moment(2.0, lam)
    sd = ((draws - lam) ** 2).std() / math.sqrt(n)
    assert abs(emp - target) <= 3 * sd


def test_philox_key_stability():
    g = philox(123, 5)
    first = g.random(3)
    g2 = philox(123, 5)
    assert np.allclose(first, g2.random(3))


def _reference_moment_ci(samples, p):
    # the delta-method CI as the integrator, the checks and randmat each wrote it
    pw = samples ** p
    m = float(pw.mean())
    sd = float(pw.std(ddof=1)) / math.sqrt(len(pw))
    lo = max(m - sd, 0.0) ** (1.0 / p)
    hi = (m + sd) ** (1.0 / p)
    return m ** (1.0 / p), (hi - lo) / 2.0


@pytest.mark.parametrize("n, p", [(2, 2.0), (7, 1.0), (500, 3.0), (4000, 1.5)])
def test_moment_ci_matches_reference_bit_for_bit(n, p):
    samples = np.abs(philox(n, 3).standard_normal(n)) * 2.5
    assert moment_ci(samples, p) == _reference_moment_ci(samples, p)


def test_moment_ci_clips_lower_end_at_zero():
    # mean of X^2 is 25 with standard error 25, so the interval is [0, 50]
    samples = np.array([0.0, 0.0, 0.0, 10.0])
    est, half = moment_ci(samples, 2.0)
    assert (est, half) == _reference_moment_ci(samples, 2.0)
    assert est == 5.0
    assert half == pytest.approx(math.sqrt(50.0) / 2.0)


@pytest.mark.parametrize("n", [0, 1])
def test_moment_ci_needs_two_samples(n):
    with pytest.raises(InvalidInputError):
        moment_ci(np.ones(n), 2.0)
