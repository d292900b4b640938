import math
import warnings

import numpy as np
import pytest

from conftest import norm_q
from itolab.lq import InvalidInputError, LqElement, point_space, power_mean
from itolab.prob import (BudgetExceededError, FiniteProbabilitySpace,
                         RandomLqVariable, categorical, centered_poisson_moment,
                         exact_moment, independent_product, law_moment, moment_ci, philox,
                         product_space, sign_matrix, truncated_poisson)
from oracles import uniform_space

RNG = np.random.default_rng(7)


def coin():
    return FiniteProbabilitySpace(("h", "t"), np.array([0.5, 0.5]))


def sign_space(n: int):
    """The 2^n equiprobable sign patterns: their space and the (2^n, n) signs."""
    return FiniteProbabilitySpace(tuple(range(1 << n)), np.full(1 << n, 2.0 ** -n)), sign_matrix(n)


def test_product_two_coins():
    prod = product_space([coin(), coin()])
    assert prod.n_atoms == 4
    assert np.allclose(prod.probs, 0.25)
    # atoms are indices in C order; factor_indices maps them to the coins
    assert prod.atoms == (0, 1, 2, 3)
    labels = [(coin().atoms[a], coin().atoms[b])
              for a, b in zip(prod.factor_indices(0), prod.factor_indices(1))]
    assert labels == [("h", "h"), ("h", "t"), ("t", "h"), ("t", "t")]


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


def test_exact_moment_deterministic():
    x = LqElement(RNG.standard_normal((2, 2)) + 0j)
    X = RandomLqVariable(coin(), np.stack([x.values, x.values]))
    for p in (1.0, 2.5, 4.0):
        for q in (1.0, 3.0):
            assert exact_moment(X, p, q) == pytest.approx(norm_q(x, q), rel=1e-12)


def test_exact_moment_single_rademacher():
    x = LqElement(np.array([1.5, -2.0]), uniform_space(2))
    space, signs = sign_space(1)
    vals = signs[:, :1] * x.values
    X = RandomLqVariable(space, vals, x.space)
    for p in (1.0, 3.0):
        assert exact_moment(X, p, 2.0) == pytest.approx(norm_q(x, 2.0), rel=1e-12)


def test_exact_moment_two_rademachers_hand_sum():
    # orthogonal unit coordinates of l_q^2, p = q: hand enumeration of 4 signs
    q = 3.0
    space, signs = sign_space(2)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    es = uniform_space(2, total=2.0)  # weights (1, 1)
    vals = np.stack([s[0] * e1 + s[1] * e2 for s in signs]).astype(complex)
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
    def total(variables):
        prod, lifted = independent_product(variables)
        return RandomLqVariable(prod, sum(v.values for v in lifted), point_space())

    m1 = exact_moment(total(items), 3.0, 2.0)
    total_perm = total([items[2], items[0], items[1]])
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


def test_truncated_poisson_mean_oracle():
    lam = 0.5
    tp = truncated_poisson(lam, 1e-14)
    # direct series oracle for the truncated-and-renormalized mean
    ks = np.arange(tp.cutoff + 1)
    pmf = np.exp(-lam) * lam ** ks / np.array([math.factorial(k) for k in ks])
    oracle = float((ks * pmf).sum() / pmf.sum())
    mean = float((np.arange(tp.cutoff + 1) * tp.probs).sum())
    assert mean == pytest.approx(oracle, abs=1e-14)
    assert mean == pytest.approx(lam, abs=1e-10)


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


def test_centered_moment_past_the_float_range_of_k_to_the_p():
    # E|N - 1|^p = e^-1 sum_k |k - 1|^p / k!, summed exactly over 600 terms;
    # from p of about 140 some k^p overflows a float, up to about 219 the sum
    # does not, and past that the moment is inf
    from fractions import Fraction

    def exact(p):
        return float(sum(Fraction(abs(k - 1) ** p, math.factorial(k))
                         for k in range(600))) * math.exp(-1)

    for p in (100, 139, 200, 219):
        assert centered_poisson_moment(float(p), 1.0) == pytest.approx(exact(p), rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # numpy scalars, as from a lambda grid, raise no overflow warning
        assert 0 < centered_poisson_moment(np.float64(230.0), np.float64(1e-4)) < math.inf
        assert centered_poisson_moment(np.float64(230.0), np.float64(1.0)) == math.inf
        assert centered_poisson_moment(1e5, 0.5) == math.inf
    # an inf moment has an inf tail bound
    moment, info = centered_poisson_moment(220.0, 1.0, details=True)
    assert moment == info["tail_bound"] == math.inf


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
    s1 = categorical(philox(42), coin().probs, 50)
    s2 = categorical(philox(42), coin().probs, 50)
    assert list(s1) == list(s2)
    s3 = categorical(philox(42, 1), coin().probs, 50)
    assert list(s1) != list(s3)


def test_sample_fair_coin_clt_band():
    n = 10 ** 5
    draws = categorical(philox(7), coin().probs, n)
    mean = np.mean(draws == 0)
    assert abs(mean - 0.5) <= 3 * 0.5 / math.sqrt(n)


def test_sample_truncated_poisson_vs_series():
    lam, n = 0.3, 10 ** 5
    tp = truncated_poisson(lam, 1e-12)
    draws = categorical(philox(11), tp.probs, n).astype(float)
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


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_law_moment_is_exact_for_a_law_and_3_sigma_for_draws(p):
    values = np.abs(philox(11, 4).standard_normal(300)) * 1.7
    probs = np.full(300, 1.0 / 300)
    assert law_moment(values, probs, p) == (power_mean(values, probs, p), 0.0)
    est, half = moment_ci(values, p)
    assert law_moment(values, None, p) == (est, 3.0 * half)


# -- power_mean ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_power_mean_is_the_plain_expression_bit_for_bit(seed):
    gen = philox(seed, 11)
    k = int(gen.integers(1, 40))
    values = np.abs(gen.standard_normal(k)) * 10.0 ** gen.uniform(-3, 3)
    values[gen.random(k) < 0.2] = 0.0
    probs = gen.dirichlet(np.ones(k))
    p = float(gen.uniform(1.0, 30.0))
    assert power_mean(values, probs, p) == float((probs * values ** p).sum() ** (1.0 / p))


def _quiet(f, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


def test_power_mean_does_not_overflow():
    # 6^400 overflows; 6 (1/2)^(1/400) does not
    values, probs = np.array([6.0, 1.0]), np.array([0.5, 0.5])
    with np.errstate(over="ignore"):
        assert (probs * values ** 400.0).sum() == math.inf
    got = _quiet(power_mean, values, probs, 400.0)
    assert type(got) is float
    assert got == pytest.approx(6.0 * 0.5 ** (1.0 / 400.0), rel=1e-15)
    assert round(got, 4) == 5.9896


def test_power_mean_rescales_only_the_rows_that_need_it():
    # leading axes are batch: the overflowing row is divided by its largest
    # value, the zero row stays 0, and the others keep the plain bits
    values = np.array([[[6.0, 1.0], [2.0, 3.0]], [[0.0, 0.0], [1e-200, 1e-200]]])
    probs = np.array([0.5, 0.5])
    got = _quiet(power_mean, values, probs, 400.0)
    assert got.shape == (2, 2)
    assert got[0, 0] == power_mean(values[0, 0], probs, 400.0)
    assert got[0, 1] == float((probs * values[0, 1] ** 400.0).sum() ** (1.0 / 400.0))
    assert got[1, 0] == 0.0
    assert got[1, 1] == pytest.approx(1e-200, rel=1e-15)
    assert np.array_equal(_quiet(power_mean, values[0], 1.0, 2.0),
                          (values[0] ** 2.0).sum(axis=-1) ** 0.5)


def test_power_mean_does_not_underflow():
    got = _quiet(power_mean, np.array([1e-200, 1e-200]), np.array([0.5, 0.5]), 2.0)
    assert got == pytest.approx(1e-200, rel=1e-15)


def test_power_mean_of_zeros_and_of_an_infinite_value():
    assert _quiet(power_mean, np.zeros(3), np.full(3, 1.0 / 3.0), 1000.0) == 0.0
    with np.errstate(over="ignore"):
        assert power_mean(np.array([math.inf, 1.0]), np.array([0.5, 0.5]), 2.0) == math.inf


def test_moment_ci_does_not_overflow():
    # X^1000 overflows at 3; divided by the largest sample 6 it does not
    samples = np.array([1.0, 3.0, 6.0, 6.0])
    est, half = _quiet(moment_ci, samples, 1000.0)
    assert est == pytest.approx(6.0 * 0.5 ** (1.0 / 1000.0), rel=1e-15)
    assert 0.0 < half < est
