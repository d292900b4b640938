import math
import runpy
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from itolab import randmat
from itolab.checks import ConstantTable
from conftest import norm_q
from itolab.lq import LqElement
from itolab.prob import moment_ci, philox
from itolab.randmat import (EntryLaw, MatrixEnsemble, bound_entry_matrix,
                            bound_latala, bound_matrix_sum, gaussian_law,
                            rademacher_law, seginer_ensemble, two_atom_law)


def test_entry_laws_mean_zero_and_moments():
    r = rademacher_law()
    assert r.abs_moment(2.0) == pytest.approx(1.0)
    assert r.abs_moment(4.0) == pytest.approx(1.0)
    g = gaussian_law()
    assert g.abs_moment(2.0) == pytest.approx(1.0)
    assert g.abs_moment(4.0) == pytest.approx(3.0)
    t = two_atom_law(3.0, 0.1)
    assert float((t.atoms * t.probs).sum()) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(Exception):
        EntryLaw("bad", np.array([1.0, 1.0]), np.array([0.5, 0.5]))


def test_sum_bound_single_deterministic_like():
    # n = 1 with a two-atom law collapsing to +-x: bounds hold with slack
    ens = MatrixEnsemble(2, 2, 1, rademacher_law())
    rep = bound_matrix_sum(ens, 2.0)
    assert rep.status == "pass"
    assert rep.lhs <= rep.rhs


def test_sum_bound_diagonal_rademacher_exact():
    # diagonal summands via a scale pattern zeroing the off-diagonal
    scale = np.eye(2)
    ens = MatrixEnsemble(2, 2, 4, rademacher_law(), "summand", scale)
    assert ens.exact_feasible()
    rep = bound_matrix_sum(ens, 4.0)
    assert rep.status == "pass"
    assert not rep.details["monte_carlo"]
    # diagonal of n summands of +-1 entries: ||sum|| = max |sum of signs|
    assert rep.lhs <= 4.0 + 1e-9


def test_sum_bound_monte_carlo_full_matrices():
    ens = MatrixEnsemble(4, 4, 8, rademacher_law())
    rep = bound_matrix_sum(ens, 4.0, n_samples=3000, seed=3)
    assert rep.details["monte_carlo"]
    assert rep.status == "pass"


def test_sum_bound_gaussian():
    ens = MatrixEnsemble(3, 3, 4, gaussian_law())
    rep = bound_matrix_sum(ens, 2.0, n_samples=3000, seed=4)
    assert rep.status == "pass"


def test_sum_bound_status_scale_invariant():
    base = MatrixEnsemble(2, 2, 4, rademacher_law())
    scaled = MatrixEnsemble(2, 2, 4, rademacher_law(), "summand",
                            4.0 * np.ones((2, 2)))
    r1 = bound_matrix_sum(base, 2.0, n_samples=2000, seed=5)
    r2 = bound_matrix_sum(scaled, 2.0, n_samples=2000, seed=5)
    assert r1.status == r2.status == "pass"


def test_entry_bound_single_nonzero_entry():
    scale = np.zeros((3, 3))
    scale[0, 0] = 1.0
    ens = MatrixEnsemble(3, 3, 1, rademacher_law(), "entries", scale)
    rep = bound_entry_matrix(ens, 2.0)
    assert rep.status == "pass"
    assert rep.lhs == pytest.approx(1.0, rel=1e-9)


def test_entry_bound_iid_signs_row_column_terms():
    d = 4
    ens = MatrixEnsemble(d, d, 1, rademacher_law(), "entries")
    rep = bound_entry_matrix(ens, 2.0, n_samples=2000, seed=6)
    assert rep.details["column"] == pytest.approx(math.sqrt(d))
    assert rep.details["row"] == pytest.approx(math.sqrt(d))
    assert rep.status == "pass"


def test_entry_bound_heavy_two_atom():
    law = two_atom_law(30.0, 0.002, fourth_finite=False)
    ens = MatrixEnsemble(3, 3, 1, law, "entries")
    rep = bound_entry_matrix(ens, 2.0, n_samples=4000, seed=7)
    assert rep.status == "pass"
    lat = bound_latala(ens, 2.0, n_samples=1000, seed=7)
    assert lat.status == "report-only"
    assert "inapplicable" in lat.details["note"]


def test_latala_deterministic_single_entry():
    scale = np.zeros((2, 2))
    scale[1, 1] = 2.0
    ens = MatrixEnsemble(2, 2, 1, rademacher_law(), "entries", scale)
    rep = bound_latala(ens, 2.0)
    # all three terms equal |x| = 2
    assert rep.details["row_term"] == pytest.approx(2.0)
    assert rep.details["column_term"] == pytest.approx(2.0)
    assert rep.details["fourth_term"] == pytest.approx(2.0)
    assert rep.details["first_ratio"] == pytest.approx(2.0 / 6.0, rel=1e-9)


def test_latala_iid_signs_closed_form_terms():
    d = 4
    ens = MatrixEnsemble(d, d, 1, rademacher_law(), "entries")
    rep = bound_latala(ens, 2.0, n_samples=2000, seed=8)
    assert rep.details["row_term"] == pytest.approx(math.sqrt(d))
    assert rep.details["column_term"] == pytest.approx(math.sqrt(d))
    assert rep.details["fourth_term"] == pytest.approx((d * d) ** 0.25)
    assert rep.status == "report-only"


def test_latala_gaussian_comparison_emitted():
    ens = MatrixEnsemble(8, 8, 1, gaussian_law(), "entries")
    rep = bound_latala(ens, 2.0, n_samples=2000, seed=9)
    assert math.isfinite(rep.details["first_ratio"])
    assert math.isfinite(rep.details["moment_ratio"])


def test_latala_configured_constant():
    ens = MatrixEnsemble(4, 4, 1, rademacher_law(), "entries")
    rep = bound_latala(ens, 2.0, n_samples=2000, seed=10,
                       table=ConstantTable(latala_constant=10.0))
    assert rep.status == "pass"


def test_latala_configured_verdict_widens_by_the_sampled_ci():
    # a Gaussian ensemble samples its first moment; a constant that puts
    # c * base half a 3-sigma CI below it passes, one two CIs below fails
    ens = MatrixEnsemble(4, 4, 1, gaussian_law(), "entries")
    (first, half), _, mc = randmat._moments(ens, 1.0, 4000, 0, 2)
    assert mc
    assert (first, half) == (pytest.approx(3.11406, abs=1e-5), pytest.approx(0.02866, abs=1e-5))

    def status(c):
        return bound_latala(ens, 2.0, n_samples=4000, seed=0,
                            table=ConstantTable(latala_constant=c)).status

    base = bound_latala(ens, 2.0, n_samples=4000, seed=0).rhs
    assert base == pytest.approx(6.63215, abs=1e-5)
    assert status((first - half / 2) / base) == "pass"
    assert status((first - 2 * half) / base) == "fail"


def test_seginer_d1_ratio_one():
    rep = seginer_ensemble(np.ones((1, 3)), 2.0)
    # a single row: the sum is a fixed-norm row vector, ratio exactly 1
    assert rep.details["ratio"] == pytest.approx(1.0, rel=1e-9)


def test_seginer_all_ones_exact():
    rep = seginer_ensemble(np.ones((4, 4)), 2.0)
    assert not rep.details["monte_carlo"]
    assert rep.details["ratio"] >= 1.0


def test_seginer_dimension_sweep_envelope():
    ratios = []
    for d in (2, 4, 8):
        rep = seginer_ensemble(np.ones((d, d)), 2.0, n_samples=2000, seed=11)
        ratios.append(rep.details["ratio"])
    assert all(math.isfinite(r) for r in ratios)
    assert ratios == sorted(ratios)  # nondecreasing measured envelope


def test_diag_embedding_is_max_norm():
    gen = philox(30, 0)
    xs = [LqElement(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
          for _ in range(4)]
    diag = np.zeros((8, 8), dtype=complex)
    for k, x in enumerate(xs):
        diag[2 * k:2 * k + 2, 2 * k:2 * k + 2] = x.values
    assert norm_q(LqElement(diag), math.inf) == pytest.approx(
        max(norm_q(x, math.inf) for x in xs), rel=1e-12)


def test_column_row_terms_two_ways():
    gen = philox(31, 0)
    xs = [LqElement(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
          for _ in range(3)]
    # way 1: stack as a block column and take the operator norm
    col_embed = norm_q(LqElement(np.vstack([x.values for x in xs])), math.inf)
    # way 2: direct eigen-norm of the summed gram matrix
    gram = sum(x.values.conj().T @ x.values for x in xs)
    direct = math.sqrt(float(np.linalg.eigvalsh(gram).max()))
    assert col_embed == pytest.approx(direct, rel=1e-10)


def test_reverse_direction_terms():
    ens = MatrixEnsemble(2, 2, 4, rademacher_law())
    rep = bound_matrix_sum(ens, 2.0)
    # the reverse bounds are part of the pass status; spot-check the numbers
    assert rep.details["column"] <= 2.0 * rep.lhs + 1e-9
    assert rep.details["max_term"] <= 2.0 ** 1.5 * rep.lhs + 1e-9


def test_seginer_sweep_includes_d16():
    rep = seginer_ensemble(np.ones((16, 16)), 2.0, n_samples=1500, seed=12)
    assert rep.details["monte_carlo"]
    assert math.isfinite(rep.details["ratio"])


def test_sampled_status_stable_across_seeds():
    ens = MatrixEnsemble(4, 4, 8, rademacher_law())
    r1 = bound_matrix_sum(ens, 2.0, n_samples=3000, seed=1)
    r2 = bound_matrix_sum(ens, 2.0, n_samples=3000, seed=999)
    assert r1.status == r2.status == "pass"


# -- the operator-norm law against a per-moment reference ------------------------
#
# _ref_moments reads the per-moment statistics as they were before the law was
# computed once per ensemble: every moment enumerates or samples again and
# every summand gets its own SVD.  Patched in for the module's ``_moments``, it
# gives the reference reports of the public entry points, which must match bit
# for bit.


def _ref_enumerate_stats(ens, p):
    atoms, probs = ens.law.atoms, ens.law.probs
    na = len(atoms)
    m = ens.entry_count()
    total = na ** m
    scale = ens.scale_matrix
    sum_pow = 0.0
    max_pow = 0.0
    digits = na ** np.arange(m)
    for start in range(0, total, randmat._CHUNK):
        idxs = np.arange(start, min(start + randmat._CHUNK, total))
        config = (idxs[:, None] // digits[None, :]) % na
        vals = atoms[config].reshape(-1, ens.n, ens.d1, ens.d2) * scale
        pr = probs[config].prod(axis=1)
        norms = np.linalg.svd(vals, compute_uv=False)[..., 0]
        sums = vals.sum(axis=1)
        sum_pow += float((pr * np.linalg.svd(sums, compute_uv=False)[..., 0] ** p).sum())
        max_pow += float((pr * norms.max(axis=1) ** p).sum())
    return sum_pow ** (1.0 / p), max_pow ** (1.0 / p)


def _ref_sample(law, gen, shape):
    if law.is_discrete:
        cum = np.cumsum(law.probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, gen.random(shape), side="right")
        return law.atoms[np.minimum(idx, len(law.atoms) - 1)]
    return gen.standard_normal(shape)


def _ref_sample_stats(ens, p, n_samples, seed, stream=0):
    gen = philox(seed, stream)
    vals = _ref_sample(ens.law, gen, (n_samples, ens.n, ens.d1, ens.d2)) * ens.scale_matrix
    norms = np.linalg.svd(vals, compute_uv=False)[..., 0]
    sums = np.linalg.svd(vals.sum(axis=1), compute_uv=False)[..., 0]
    return moment_ci(sums, p), moment_ci(norms.max(axis=1), p)


def _ref_moments(ens, p, n_samples, seed, stream, exact=True):
    if exact and ens.exact_feasible():
        lhs, emax = _ref_enumerate_stats(ens, p)
        return (lhs, 0.0), (emax, 0.0), False
    (lhs, lhs_ci), (emax, emax_ci) = _ref_sample_stats(ens, p, n_samples, seed, stream)
    return (lhs, lhs_ci * 3.0), (emax, emax_ci * 3.0), True


PS = (2.0, 3.0, 3.7, 4.5)
LAWS = {"rademacher": rademacher_law, "two_atom": lambda: two_atom_law(2.0, 0.3),
        "gaussian": gaussian_law}
SCALE = np.array([[1.0, 0.0], [0.5, -2.0]])


def _bits(rep):
    # repr of a float round-trips, so equal reprs are equal bits
    return repr((rep.lhs, rep.rhs, rep.details))


def _with_reference(monkeypatch, run):
    got = run()
    with monkeypatch.context() as mp:
        mp.setattr(randmat, "_moments", _ref_moments)
        want = run()
    assert got == want


SUM_GRID = [(law, d1, d2, n, None) for law, d1, d2 in (
    ("rademacher", 1, 3), ("two_atom", 2, 2), ("rademacher", 2, 3), ("gaussian", 3, 2),
    ("two_atom", 3, 2)) for n in range(1, 6)] + [("rademacher", 2, 2, 3, SCALE)]


@pytest.mark.parametrize("law, d1, d2, n, scale", SUM_GRID, ids=[
    f"{law}-{d1}x{d2}-n{n}{'-scaled' if scale is not None else ''}"
    for law, d1, d2, n, scale in SUM_GRID])
def test_sum_bound_law_is_bit_identical_to_reference(monkeypatch, law, d1, d2, n, scale):
    def run():
        ens = MatrixEnsemble(d1, d2, n, LAWS[law](), "summand", scale)
        # exact mode only where the reference enumerates quickly
        modes = [False] if ens.exact_feasible() and ens.entry_count() <= 12 else []
        return [_bits(bound_matrix_sum(ens, p, force_mc=mc, n_samples=k, seed=5))
                for mc in modes + [True] for k in (300, 20) for p in PS]

    _with_reference(monkeypatch, run)


ENTRY_GRID = [(law, d1, d2) for law in LAWS for d1, d2 in ((1, 3), (2, 2), (2, 3), (3, 2))]


@pytest.mark.parametrize("law, d1, d2", ENTRY_GRID + [("rademacher", 5, 5)],
                         ids=[f"{law}-{d1}x{d2}" for law, d1, d2 in ENTRY_GRID]
                         + ["rademacher-5x5-sampled"])
def test_entry_latala_seginer_law_is_bit_identical_to_reference(monkeypatch, law, d1, d2):
    pattern = np.arange(1.0, d1 * d2 + 1).reshape(d1, d2) - 2.0

    def run():
        ens = MatrixEnsemble(d1, d2, 1, LAWS[law](), "entries")
        out = [_bits(bound_entry_matrix(ens, p, force_mc=mc, n_samples=300, seed=6))
               for mc in (False, True) for p in PS]
        out += [_bits(bound_latala(ens, p, n_samples=300, seed=6)) for p in PS]
        out += [_bits(seginer_ensemble(a, p, n_samples=300, seed=6))
                for a in (np.ones((d1, d2)), pattern) for p in PS]
        return out

    _with_reference(monkeypatch, run)


def test_law_memo_is_keyed_by_content(law_builds):
    def summands(scale=None):
        return MatrixEnsemble(2, 2, 3, rademacher_law(), "summand", scale)

    def entries(d):
        return MatrixEnsemble(d, d, 1, rademacher_law(), "entries")

    draws = [{"n_samples": 200, "seed": 1}, {"n_samples": 200, "seed": 2},
             {"n_samples": 300, "seed": 2}]
    calls = [
        # exact: equal ensembles built apart share one law at every p, and an
        # all-ones pattern is no pattern; so do matrix_entries, latala's two
        # moments and seginer's all-ones a, whatever their streams
        *(partial(bound_matrix_sum, summands(), p) for p in (3.0, 4.5)),
        partial(bound_matrix_sum, summands(np.ones((2, 2))), 3.0),
        partial(bound_entry_matrix, entries(3), 3.0),
        partial(bound_latala, entries(3), 3.0),
        partial(seginer_ensemble, np.ones((3, 3)), 3.0),
        # sampled: one law per (n_samples, seed, stream), shared across p
        *(partial(bound_matrix_sum, summands(), p, force_mc=True, **kw)
          for kw in draws for p in (3.0, 4.5)),
        # 2^25 configurations: streams 1, 2 (both latala moments) and 3
        partial(bound_entry_matrix, entries(5), 3.0, n_samples=200, seed=4),
        partial(bound_latala, entries(5), 3.0, n_samples=200, seed=4),
        partial(seginer_ensemble, np.ones((5, 5)), 3.0, n_samples=200, seed=4),
    ]
    got = [_bits(call()) for call in calls]
    assert len(law_builds) == 2 + len(draws) + 3

    def fresh(call):
        randmat._last_law.clear()
        return _bits(call())

    assert got == [fresh(call) for call in calls]
    assert len({fresh(partial(bound_matrix_sum, summands(), 3.0, force_mc=True, **kw))
                for kw in draws}) == len(draws)


def test_matrix_sweep_script_rows(monkeypatch, capsys):
    # rows of scripts/matrix_sweep.py recorded before the law was shared
    script = Path(__file__).parents[1] / "scripts" / "matrix_sweep.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--dims", "2", "4", "--samples", "200"])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == [
        "   d  entry lhs  entry rhs  latala ratio  seginer ratio  (log d)^1/4",
        "   2     1.7321   142.7101        0.4024         1.2247       0.9124",
        "   4     2.9769   142.7101        0.4937         1.4884       1.0851",
    ]
