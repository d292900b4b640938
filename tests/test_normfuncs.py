"""The regime-tree atoms, pinned bit for bit and checked against the oracle.

No workload digest covers the matrix process norms, so every atom is pinned
here, as a sequence norm and as a process norm, on one commutative table and
one 2x2 matrix table.  The values were recorded with the five functionals
written out one by one, before they shared their kernels.  ``value`` is
``value_grad`` on a batch of one; the four matrix D pins that moved to the
singular-value route then are within 1.5 ulp of a 50-digit reference, as
their old Gram-route values were.
"""

import numpy as np
import pytest

from itolab import normfuncs, sumopt
from itolab.lq import FiniteMeasureSpace, InvalidInputError
from itolab.normfuncs import norm_atom
from itolab.prob import FiniteProbabilitySpace
from itolab.seqnorms import LqSequence
from oracles import _direct_atom

PROBS = np.array([0.5, 0.25, 0.25])
WEIGHTS = np.array([1.0, 0.5, 2.0])
LAM = np.array([0.3, 0.7])


def _table(*elem) -> np.ndarray:
    """(2 items or cells, 3 atoms, *elem) with dyadic entries, exact in any
    arithmetic."""
    k = np.arange(2 * 3 * int(np.prod(elem)))
    return ((k * 7 % 11 - 5) / 4.0 + 1j * (k * 5 % 13 - 6) / 8.0).reshape(2, 3, *elem)


PINNED = {
    (1.5, 3.0, "commutative", "sequence", "S"): 2.2249719553254788,
    (1.5, 3.0, "commutative", "process", "S"): 1.5829846764411168,
    (1.5, 3.0, "commutative", "sequence", "D_qq"): 2.043196951194144,
    (1.5, 3.0, "commutative", "process", "D_qq"): 1.6190505054909081,
    (1.5, 3.0, "commutative", "sequence", "D_pq"): 2.5664370532711294,
    (1.5, 3.0, "commutative", "process", "D_pq"): 1.616199188191297,
    (1.5, 3.0, "matrix", "sequence", "S"): 2.4582375003104278,
    (1.5, 3.0, "matrix", "process", "S"): 1.7211539865800458,
    (1.5, 3.0, "matrix", "sequence", "S_c"): 2.4582375003104278,
    (1.5, 3.0, "matrix", "process", "S_c"): 1.7211539865800458,
    (1.5, 3.0, "matrix", "sequence", "S_r"): 2.4249921695010386,
    (1.5, 3.0, "matrix", "process", "S_r"): 1.7250515492005662,
    (1.5, 3.0, "matrix", "sequence", "D_qq"): 2.2673043286698262,
    (1.5, 3.0, "matrix", "process", "D_qq"): 1.7634658850750635,
    (1.5, 3.0, "matrix", "sequence", "D_pq"): 2.828976640975876,
    (1.5, 3.0, "matrix", "process", "D_pq"): 1.7507702282033923,
    (3.0, 1.5, "commutative", "sequence", "S"): 3.331188056907327,
    (3.0, 1.5, "commutative", "process", "S"): 2.3621008172531623,
    (3.0, 1.5, "commutative", "sequence", "D_qq"): 3.6730182398433504,
    (3.0, 1.5, "commutative", "process", "D_qq"): 2.32919855064813,
    (3.0, 1.5, "commutative", "sequence", "D_pq"): 2.9267307730711365,
    (3.0, 1.5, "commutative", "process", "D_pq"): 2.3354677190148596,
    (3.0, 1.5, "matrix", "sequence", "S"): 2.9630422542354733,
    (3.0, 1.5, "matrix", "process", "S"): 2.03363451844167,
    (3.0, 1.5, "matrix", "sequence", "S_c"): 2.9630422542354733,
    (3.0, 1.5, "matrix", "process", "S_c"): 2.03363451844167,
    (3.0, 1.5, "matrix", "sequence", "S_r"): 2.9865830257891903,
    (3.0, 1.5, "matrix", "process", "S_r"): 2.0299067835381734,
    (3.0, 1.5, "matrix", "sequence", "D_qq"): 3.2391373457788233,
    (3.0, 1.5, "matrix", "process", "D_qq"): 1.9920712146842101,
    (3.0, 1.5, "matrix", "sequence", "D_pq"): 2.595584951777122,
    (3.0, 1.5, "matrix", "process", "D_pq"): 2.003517180003902,
}


@pytest.mark.parametrize("key", PINNED, ids=lambda k: "-".join(map(str, k)))
def test_atom_values_are_pinned(key):
    p, q, kind, form, name = key
    table, weights = (_table(3), WEIGHTS) if kind == "commutative" else (_table(2, 2), None)
    f = norm_atom(name, p, q, PROBS, weights, None if form == "sequence" else LAM)
    assert f.value(table) == PINNED[key]


def test_unknown_atom_is_rejected():
    with pytest.raises(InvalidInputError):
        norm_atom("D_qp", 2.0, 2.0, PROBS, WEIGHTS)


REGIME_POINTS = ((3.0, 2.5), (2.5, 3.0), (1.5, 3.0), (3.0, 1.5), (1.8, 1.5), (1.5, 1.8))


@pytest.mark.parametrize("p,q", REGIME_POINTS)
@pytest.mark.parametrize("elem", [(3,), (2, 2), (2, 3)], ids=["comm", "2x2", "2x3"])
def test_sequence_atoms_match_the_direct_oracle(p, q, elem):
    table = _table(*elem)
    space = FiniteProbabilitySpace(("a", "b", "c"), PROBS)
    if len(elem) == 1:
        names, weights = ("S", "D_qq", "D_pq"), WEIGHTS
        seq = LqSequence(space, table, FiniteMeasureSpace(("x", "y", "z"), WEIGHTS))
    else:
        names, weights = ("S_c", "S_r", "D_qq", "D_pq"), None
        seq = LqSequence(space, table)
    for name in names:
        got = norm_atom(name, p, q, PROBS, weights).value(table)
        want = float(_direct_atom(name, table[None], seq, p, q)[0])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_no_functional_defines_its_own_value():
    # one route per number: ``value`` is ``NormFunctional.value`` everywhere
    for module in (normfuncs, sumopt):
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, sumopt.NormFunctional):
                if cls is not sumopt.NormFunctional:
                    assert "value" not in vars(cls), cls.__name__
