import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import norm_q
from itolab.lq import (ExponentPair, FiniteMeasureSpace, InvalidInputError,
                       LqElement, batch_norm_q, point_space, singular_values)
from itolab.prob import philox
from oracles import uniform_space

RNG = np.random.default_rng(20240817)


def random_matrix(d1, d2, rng=RNG):
    return LqElement(rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2)))


def test_norm_identity_matrix():
    for d in (1, 2, 5):
        for q in (1.0, 2.0, 3.5):
            x = LqElement(np.eye(d, dtype=complex))
            assert norm_q(x, q) == pytest.approx(d ** (1.0 / q), rel=1e-12)


def test_norm_rank_one_projection():
    u = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
    u /= np.linalg.norm(u)
    x = LqElement(np.outer(u, u.conj()))
    # zero singular values carry sqrt(eps) noise through the Gram route
    for q in (1.0, 2.0, 7.0, math.inf):
        assert norm_q(x, q) == pytest.approx(1.0, abs=1e-7)


def test_norm_vs_characteristic_polynomial_oracle():
    # independent oracle: eigenvalues of x*x from its 2x2 characteristic polynomial
    x = random_matrix(3, 2)
    g = x.values.conj().T @ x.values
    tr, det = g[0, 0] + g[1, 1], g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    disc = np.sqrt(tr ** 2 - 4 * det)
    eigs = np.array([(tr + disc) / 2, (tr - disc) / 2]).real
    expected = (np.sqrt(eigs) ** 3).sum() ** (1 / 3)
    assert norm_q(x, 3.0) == pytest.approx(expected, abs=1e-10)


def test_norm_infinite_q():
    x = LqElement(np.diag([3.0, -4.0, 2.0]).astype(complex))
    assert norm_q(x, math.inf) == pytest.approx(4.0)
    f = LqElement(np.array([1.0, -5.0, 2.0]), uniform_space(3))
    assert norm_q(f, math.inf) == pytest.approx(5.0)


def test_singular_values_scale_exactly_by_powers_of_two():
    # the Gram route squares the entries: without its power-of-two prescale
    # 2^-565 (about 1e-170) would square to 0 and 2^600 to inf
    x = random_matrix(2, 3).values
    base = singular_values(x)
    for k in (-565, -300, 300, 600):
        assert np.array_equal(singular_values(x * 2.0 ** k), base * 2.0 ** k)
    both = singular_values(np.stack([x, x * 2.0 ** -565]))
    assert np.array_equal(both, np.stack([base, base * 2.0 ** -565]))
    assert np.array_equal(singular_values(np.zeros((2, 2))), np.zeros(2))


def test_singular_values_of_subnormal_matrix():
    # a prescale of 2^-1073 would make numpy's complex division multiply by
    # 1 / 2^-1073 = inf, and 0 * inf gives NaN singular values
    tiny = np.array([[0.0, 0.0], [0.0, 5e-324]])
    assert np.array_equal(singular_values(tiny), np.array([5e-324, 0.0]))
    assert np.array_equal(singular_values(tiny * 2.0 ** 60), np.array([5e-324 * 2.0 ** 60, 0.0]))


def test_singular_values_of_matrix_near_overflow():
    # an entry of at least 2^1023 must not make the power-of-two prescale inf
    # (inf * 0 gave NaN); the Gram route cannot resolve sigma_2 = 1 against it
    sv = singular_values(np.array([[1.7e308, 0.0], [0.0, 1.0]]))
    assert np.isfinite(sv).all() and sv[0] == 1.7e308


def _plain_norm(values, q, weights):
    """The power sum that batch_norm_q took before it went through power_mean."""
    if weights is not None:
        return (weights * np.abs(values) ** q).sum(axis=-1) ** (1.0 / q)
    return (singular_values(values) ** q).sum(axis=-1) ** (1.0 / q)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape, weighted", [((4, 3, 5), True), ((6, 2, 2), False),
                                             ((3, 4, 2, 3), False)],
                         ids=["weighted", "2x2", "2x3"])
def test_batch_norm_q_is_the_plain_expression_bit_for_bit(seed, shape, weighted):
    gen = philox(seed, 12)
    values = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) \
        * 10.0 ** gen.uniform(-3, 3)
    weights = gen.uniform(0.1, 2.0, shape[-1]) if weighted else None
    q = float(gen.uniform(1.0, 30.0))
    assert np.array_equal(batch_norm_q(values, q, weights), _plain_norm(values, q, weights))


def test_batch_norm_q_does_not_overflow():
    # 3^2000 overflows; divided by the largest modulus, (1 + 3^-2000)^(1/2000) = 1
    values, weights = np.array([[3.0, 1.0]]), np.ones(2)
    with np.errstate(over="ignore"):
        assert _plain_norm(values, 2000.0, weights)[0] == math.inf
    assert batch_norm_q(values, 2000.0, weights)[0] == 3.0
    assert batch_norm_q(np.diag([3.0, 1.0])[None], 2000.0)[0] == 3.0


def test_norm_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        LqElement(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(InvalidInputError):
        norm_q(LqElement(np.eye(2, dtype=complex)), 0.5)


@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                          allow_nan=False, allow_infinity=False),
       st.floats(min_value=1.0, max_value=8.0))
def test_homogeneity(c, q):
    x = LqElement(np.array([[1.2, -0.3], [0.4, 2.0]], dtype=complex))
    assert norm_q(x * c, q) == pytest.approx(abs(c) * norm_q(x, q), rel=1e-9, abs=1e-12)


def test_triangle_inequality_random():
    for _ in range(1000):
        q = RNG.uniform(1.0, 6.0)
        x, y = random_matrix(2, 3), random_matrix(2, 3)
        assert norm_q(LqElement(x.values + y.values), q) <= norm_q(x, q) + norm_q(y, q) + 1e-9


def test_commutative_matches_weighted_diagonal():
    space = FiniteMeasureSpace(tuple(range(3)), np.array([0.2, 1.5, 0.8]))
    f = LqElement(RNG.standard_normal(3) + 1j * RNG.standard_normal(3), space)
    for q in (1.0, 2.0, 3.3):
        # diag(w_s^(1/q) f_s) under the standard trace has the weighted norm
        diag = LqElement(np.diag(space.weights ** (1.0 / q) * f.values))
        assert norm_q(f, q) == pytest.approx(norm_q(diag, q), rel=1e-10)


def test_exponent_pair_validation():
    ExponentPair(2.0, 3.0)
    ExponentPair(1.0, 2.0, allow_one=True)
    with pytest.raises(InvalidInputError):
        ExponentPair(1.0, 2.0)
    with pytest.raises(InvalidInputError):
        ExponentPair(2.0, math.inf)


def test_point_space_scalar():
    x = LqElement(np.array([2.0 + 1.0j]), point_space())
    for q in (1.0, 2.0, 5.0):
        assert norm_q(x, q) == pytest.approx(abs(2.0 + 1.0j))
