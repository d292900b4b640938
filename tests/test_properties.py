"""Property-based checks that cut across modules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import norm_q
from itolab.lq import LqElement
from itolab.prob import philox, truncated_poisson
from itolab.seqnorms import LqSequence, norm_D, norm_S, regime_select
from itolab.prob import FiniteProbabilitySpace
from itolab.lq import point_space

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=4, max_size=4),
       st.lists(finite_floats, min_size=4, max_size=4),
       st.floats(min_value=1.0, max_value=6.0))
def test_triangle_inequality_property(a, b, q):
    x = LqElement(np.array(a, dtype=complex).reshape(2, 2))
    y = LqElement(np.array(b, dtype=complex).reshape(2, 2))
    lhs = norm_q(LqElement(x.values + y.values), q)
    rhs = norm_q(x, q) + norm_q(y, q)
    assert lhs <= rhs + 1e-9 * max(rhs, 1.0)


@given(st.floats(min_value=2.0, max_value=12.0), st.floats(min_value=2.0, max_value=12.0))
def test_holder_product_norm(r, s):
    # ||xy||_q <= ||x||_r ||y||_s with 1/q = 1/r + 1/s (kept in the q >= 1 range)
    q = 1.0 / (1.0 / r + 1.0 / s)
    gen = philox(17, int(r * 1000) ^ int(s * 1000))
    x = LqElement(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))
    y = LqElement(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))
    xy = LqElement(x.values @ y.values)
    assert norm_q(xy, q) <= norm_q(x, r) * norm_q(y, s) * (1 + 1e-10)


@given(st.floats(min_value=1.0 + 1e-6, max_value=20.0),
       st.floats(min_value=1.0 + 1e-6, max_value=20.0))
def test_regime_select_total_and_unique(p, q):
    spec = regime_select(p, q)
    conds = [2 <= q <= p, 2 <= p <= q, p < 2 <= q, q < 2 <= p,
             q <= p <= 2, p <= q <= 2]
    assert conds[spec.case_id - 1]
    # lexicographically first applicable case wins
    first = next(i + 1 for i, c in enumerate(conds) if c)
    assert spec.case_id == first


@given(st.floats(min_value=0.0, max_value=5.0),
       st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_truncated_poisson_mass_property(lam, eps):
    tp = truncated_poisson(lam, eps)
    assert tp.tail_bound <= eps
    assert tp.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert tp.probs.min() >= 0


@settings(max_examples=15)
@given(st.integers(min_value=1, max_value=3),
       st.floats(min_value=1.1, max_value=5.0),
       st.floats(min_value=1.1, max_value=5.0))
def test_sequence_norm_homogeneity_property(n_items, p, q):
    gen = philox(23, n_items * 1000 + int(p * 37) + int(q * 101))
    space = FiniteProbabilitySpace((0, 1), np.array([0.4, 0.6]))
    vals = gen.standard_normal((n_items, 2, 1)) + 1j * gen.standard_normal((n_items, 2, 1))
    seq = LqSequence(space, vals.astype(complex), point_space())
    c = 2.5 - 1.5j
    assert norm_D(seq.scaled(c), p, q) == pytest.approx(
        abs(c) * norm_D(seq, p, q), rel=1e-11)
    assert norm_S(seq.scaled(c), q) == pytest.approx(
        abs(c) * norm_S(seq, q), rel=1e-11)


def test_embed_norm_identity_property():
    gen = philox(29, 0)
    for _ in range(25):
        q = float(gen.uniform(1.0, 6.0))
        xs = [LqElement(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
              for _ in range(3)]
        col = LqElement(np.vstack([x.values for x in xs]))  # the block column
        gram = sum(x.values.conj().T @ x.values for x in xs)
        eig = np.clip(np.linalg.eigvalsh(gram), 0, None)
        assert norm_q(col, q) == pytest.approx(
            float((eig ** (q / 2)).sum() ** (1 / q)), rel=1e-9)
