import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from itolab.lq import (ExponentPair, FiniteMeasureSpace, InvalidInputError,
                       LqElement, as_weighted_diagonal, conjugate_exponent,
                       decreasing_rearrangement, embed, modulus_square, norm_q,
                       pair, point_space, singular_values, uniform_space)

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


def test_norm_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        LqElement(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(InvalidInputError):
        norm_q(LqElement(np.eye(2, dtype=complex)), 0.5)


def test_rearrangement_diag():
    x = LqElement(np.diag([3.0, 1.0, 2.0]).astype(complex))
    step = decreasing_rearrangement(x)
    assert np.allclose(step.values, [3, 2, 1])
    assert np.allclose(step.breakpoints, [0, 1, 2, 3])


def test_rearrangement_zero():
    x = LqElement(np.zeros((2, 3), dtype=complex))
    assert np.allclose(decreasing_rearrangement(x).values, 0.0)


def test_rearrangement_commutative_vs_distribution_oracle():
    space = FiniteMeasureSpace(("a", "b"), np.array([0.5, 2.0]))
    x = LqElement(np.array([2.0, 1.0]), space)
    step = decreasing_rearrangement(x)
    assert np.allclose(step.values, [2.0, 1.0])
    assert np.allclose(step.breakpoints, [0.0, 0.5, 2.5])
    # brute-force oracle: mu_t = inf{v : d(v) <= t}, d(v) = sum of weights above v
    def d_of(v):
        return float(space.weights[np.abs(x.values) > v].sum())
    vgrid = np.linspace(0, 3, 3001)
    for t in (0.1, 0.4, 0.6, 2.0, 2.6):
        mu_oracle = min((v for v in vgrid if d_of(v) <= t), default=0.0)
        assert abs(float(step(t)) - mu_oracle) < 2e-3


def test_rearrangement_integral_identity():
    for _ in range(20):
        x = random_matrix(3, 4)
        for q in (1.0, 2.0, 3.7):
            step = decreasing_rearrangement(x)
            assert step.integral_power(q) == pytest.approx(norm_q(x, q) ** q, rel=1e-9)
    space = FiniteMeasureSpace(tuple(range(4)), np.array([0.3, 1.2, 0.5, 2.0]))
    f = LqElement(RNG.standard_normal(4) + 1j * RNG.standard_normal(4), space)
    for q in (1.0, 2.5):
        assert decreasing_rearrangement(f).integral_power(q) == pytest.approx(
            norm_q(f, q) ** q, rel=1e-12)


def test_modulus_square_matrix_unit():
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    x = LqElement(e12)
    col = modulus_square(x, "column").values
    row = modulus_square(x, "row").values
    assert np.allclose(col, np.diag([0.0, 1.0]))
    assert np.allclose(row, np.diag([1.0, 0.0]))


def test_modulus_square_self_adjoint():
    a = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    x = LqElement(a + a.conj().T)
    sq = x.values @ x.values
    assert np.allclose(modulus_square(x, "column").values, sq)
    assert np.allclose(modulus_square(x, "row").values, sq)


def test_modulus_square_vs_direct_product():
    x = random_matrix(2, 2)
    direct_col = np.array([[sum(np.conj(x.values[k, i]) * x.values[k, j]
                                for k in range(2)) for j in range(2)] for i in range(2)])
    assert np.allclose(modulus_square(x, "column").values, direct_col)


def test_embed_diag_scalars_operator_norm():
    xs = [LqElement(np.array([[a]], dtype=complex)) for a in (0.5, -3.0, 2.0)]
    assert norm_q(embed(xs, "diag"), math.inf) == pytest.approx(3.0)


def test_embed_col_single_preserves_norms():
    x = random_matrix(2, 3)
    for q in (1.0, 2.0, 4.0):
        assert norm_q(embed([x], "col"), q) == pytest.approx(norm_q(x, q), rel=1e-12)


def test_embed_col_two_matrices_vs_sqrt_oracle():
    x1, x2 = random_matrix(2, 2), random_matrix(2, 2)
    got = norm_q(embed([x1, x2], "col"), 4.0)
    # oracle: eigendecomposition of the summed gram matrix
    gram = x1.values.conj().T @ x1.values + x2.values.conj().T @ x2.values
    eig, vec = np.linalg.eigh(gram)
    root = (vec * np.sqrt(np.clip(eig, 0, None))) @ vec.conj().T
    sv = np.linalg.svd(root, compute_uv=False)
    assert got == pytest.approx((sv ** 4).sum() ** 0.25, abs=1e-10)


def test_embed_commutative_diag_and_col():
    space = uniform_space(2, total=2.0)
    xs = [LqElement(np.array([1.0, 2.0]), space), LqElement(np.array([0.0, -2.0]), space)]
    diag = embed(xs, "diag")
    for q in (1.5, 3.0):
        assert norm_q(diag, q) ** q == pytest.approx(
            sum(norm_q(x, q) ** q for x in xs), rel=1e-12)
    col = embed(xs, "col")
    assert norm_q(col, 3.0) ** 3 == pytest.approx(
        float((space.weights * (np.abs(xs[0].values) ** 2
                                + np.abs(xs[1].values) ** 2) ** 1.5).sum()), rel=1e-12)


def test_embed_rejects_mixed():
    with pytest.raises(InvalidInputError):
        embed([random_matrix(2, 2), random_matrix(2, 3)], "col")


def test_pair_identity_and_zero():
    d = 4
    i_d = LqElement(np.eye(d, dtype=complex))
    assert pair(i_d, i_d) == pytest.approx(d)
    z = LqElement(np.zeros((4, 4), dtype=complex))
    assert pair(i_d, z) == 0


def test_pair_vs_double_loop_oracle():
    x, y = random_matrix(3, 2), random_matrix(2, 3)
    expected = sum(x.values[i, k] * y.values[k, i] for i in range(3) for k in range(2))
    assert pair(x, y) == pytest.approx(expected, abs=1e-12)


def test_pair_holder():
    for _ in range(50):
        r = RNG.uniform(1.1, 4.0)
        s = conjugate_exponent(r)
        x, y = random_matrix(3, 3), random_matrix(3, 3)
        assert abs(pair(x, y)) <= norm_q(x, r) * norm_q(y, s) * (1 + 1e-12)


def test_pair_shape_mismatch():
    with pytest.raises(InvalidInputError):
        pair(random_matrix(2, 3), random_matrix(2, 3))


@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                          allow_nan=False, allow_infinity=False),
       st.floats(min_value=1.0, max_value=8.0))
def test_homogeneity(c, q):
    x = LqElement(np.array([[1.2, -0.3], [0.4, 2.0]], dtype=complex))
    assert norm_q(c * x, q) == pytest.approx(abs(c) * norm_q(x, q), rel=1e-9, abs=1e-12)


def test_triangle_inequality_random():
    for _ in range(1000):
        q = RNG.uniform(1.0, 6.0)
        x, y = random_matrix(2, 3), random_matrix(2, 3)
        assert norm_q(x + y, q) <= norm_q(x, q) + norm_q(y, q) + 1e-9


def test_commutative_matches_weighted_diagonal():
    space = FiniteMeasureSpace(tuple(range(3)), np.array([0.2, 1.5, 0.8]))
    f = LqElement(RNG.standard_normal(3) + 1j * RNG.standard_normal(3), space)
    for q in (1.0, 2.0, 3.3):
        assert norm_q(f, q) == pytest.approx(norm_q(as_weighted_diagonal(f, q), q),
                                             rel=1e-10)


def test_exponent_pair_validation():
    ExponentPair(2.0, 3.0)
    ExponentPair(1.0, 2.0, allow_p_one=True)
    with pytest.raises(InvalidInputError):
        ExponentPair(1.0, 2.0)
    with pytest.raises(InvalidInputError):
        ExponentPair(2.0, math.inf)


def test_point_space_scalar():
    x = LqElement(np.array([2.0 + 1.0j]), point_space())
    for q in (1.0, 2.0, 5.0):
        assert norm_q(x, q) == pytest.approx(abs(2.0 + 1.0j))
