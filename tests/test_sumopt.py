"""Batched norm functionals and the lockstep sum-norm optimizer."""

import math

import numpy as np
import pytest

from itolab.normfuncs import ProcDpq, ProcDqq, ProcS, SeqD, SeqS
from itolab.prob import philox
from itolab.sumopt import MaxFunctional, minimize_decomposition, pow2_scale

PROBS = np.array([0.2, 0.3, 0.5])
LAM = np.array([0.4, 0.8, 0.3])
WEIGHTS = np.array([0.5, 1.5])


def _functionals(elem: str, p: float, q: float) -> dict:
    """Every functional on commutative tables ("comm") or 2x2 matrix tables
    whose square functions act on the given side ("column" or "row")."""
    w = WEIGHTS if elem == "comm" else None
    side = "column" if elem == "comm" else elem
    seq_s, seq_d = SeqS(q, side, PROBS, w), SeqD(p, q, PROBS, w)
    proc_s = ProcS(p, q, side, LAM, PROBS, w)
    proc_qq, proc_pq = ProcDqq(p, q, LAM, PROBS, w), ProcDpq(p, q, LAM, PROBS, w)
    return {"SeqS": seq_s, "SeqD": seq_d, "ProcS": proc_s, "ProcDqq": proc_qq,
            "ProcDpq": proc_pq, "MaxSeq": MaxFunctional([seq_s, SeqD(q, q, PROBS, w)]),
            "MaxProc": MaxFunctional([proc_s, proc_qq, proc_pq])}


def _tables(rng, elem: str, batch: int) -> np.ndarray:
    shape = (batch, 3, 3) + ((2,) if elem == "comm" else (2, 2))
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


CASES = [(elem, pq, name) for elem in ("comm", "column", "row")
         for pq in ((1.5, 3.0), (3.0, 1.5))
         for name in _functionals("comm", 2.0, 2.0)]


@pytest.mark.parametrize("elem,pq,name", CASES)
def test_value_grad_rows_are_independent(elem, pq, name):
    f = _functionals(elem, *pq)[name]
    U = _tables(np.random.default_rng(1), elem, 4)
    U[2] = 0.0
    U[3] *= 1e-170   # its value underflows to 0 in most of the functionals
    vals, grads = f.value_grad(U)
    assert vals.shape == (4,) and grads.shape == U.shape
    assert vals[2] == 0.0 and not np.any(grads[vals == 0.0])
    for b in range(4):
        v1, g1 = f.value_grad(U[b:b + 1])
        np.testing.assert_allclose(vals[b], v1[0], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(grads[b], g1[0], rtol=1e-13,
                                   atol=1e-13 * np.abs(g1).max())


@pytest.mark.parametrize("elem,pq,name", CASES)
def test_value_grad_matches_central_differences(elem, pq, name):
    f = _functionals(elem, *pq)[name]
    rng = np.random.default_rng(2)
    U = _tables(rng, elem, 1)[0]
    _, g = f.value_grad(U[None])
    h = 1e-6
    for _ in range(3):
        dU = _tables(rng, elem, 1)[0]
        fd = (f.value(U + h * dU) - f.value(U - h * dU)) / (2.0 * h)
        an = float(np.real(np.vdot(g[0], dU)))   # df = Re <g, dU>
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


class _Fixed:
    """Stand-in functional with preset per-row values and a constant gradient."""

    def __init__(self, values, mark):
        self.values, self.mark = np.array(values), mark

    def value_grad(self, U):
        return self.values, np.full(U.shape, self.mark, dtype=complex)


def test_max_picks_the_first_maximum_per_row():
    nan = np.nan
    parts = [_Fixed([1.0, 2.0, nan, 1.0], 0), _Fixed([1.0, 3.0, 5.0, nan], 1),
             _Fixed([0.5, 3.0, 4.0, 2.0], 2)]
    vals, grads = MaxFunctional(parts).value_grad(np.zeros((4, 2, 1)))
    np.testing.assert_array_equal(vals, [1.0, 3.0, nan, 2.0])
    assert grads[:, 0, 0].real.tolist() == [0, 1, 0, 2]


def _split_instance(seed: int = 2024):
    """Sequence sum whose summands weigh the two points oppositely, so the
    optimal split is far below either corner."""
    rng = np.random.default_rng(seed)
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    z = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    return z, [SeqS(3.0, "column", probs, np.array([1.0, 64.0])),
               SeqD(1.5, 3.0, probs, np.array([64.0, 1.0]))]


def _process_instance():
    rng = np.random.default_rng(2026)
    probs = np.array([0.25, 0.25, 0.5])
    lam = np.array([0.4, 0.8])
    w1, w2 = np.array([1.0, 50.0]), np.array([50.0, 1.0])
    z = rng.standard_normal((2, 3, 2)) + 0j
    return z, [MaxFunctional([ProcS(1.8, 1.5, "column", lam, probs, w1),
                              ProcDqq(1.8, 1.5, lam, probs, w1)]),
               ProcDpq(1.8, 1.5, lam, probs, w2)]


def _corner_instance():
    """2x2 matrix sum with three summands where no restart beats the best corner."""
    rng = np.random.default_rng(2025)
    pb = np.array([0.5, 0.5])
    z = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
    return z, [SeqS(1.5, "column", pb), SeqS(1.5, "row", pb),
               MaxFunctional([SeqD(1.5, 1.5, pb), SeqD(1.8, 1.5, pb)])]


INSTANCES = [_split_instance, _process_instance, _corner_instance]


@pytest.mark.parametrize("make", INSTANCES)
def test_value_never_exceeds_best_corner(make):
    z, funcs = make()
    corner = min(f.value(z) for f in funcs)
    for max_iter in (0, 50, 400):
        res = minimize_decomposition(z, funcs, restarts=4, max_iter=max_iter, seed=3)
        assert res.value <= corner * (1.0 + 1e-12)
        assert np.allclose(sum(res.parts), z, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("make", INSTANCES[:2])
def test_converged_belongs_to_the_returned_restart(make):
    z, funcs = make()
    corner = min(f.value(z) for f in funcs)
    capped = minimize_decomposition(z, funcs, restarts=4, max_iter=50, seed=3)
    assert capped.value < corner and capped.iterations == 4 * 50
    assert capped.converged is False


def test_converged_ignores_the_other_restarts():
    # one restart of this instance stops on an exhausted gap, but the best
    # value comes from a restart that ran into max_iter
    z, funcs = _split_instance(seed=19)
    res = minimize_decomposition(z, funcs, restarts=4, max_iter=1000, seed=3)
    assert res.iterations < 4 * 1000
    assert res.converged is False


def test_unbeaten_corner_counts_as_converged():
    z, funcs = _corner_instance()
    res = minimize_decomposition(z, funcs, restarts=4, max_iter=50, seed=3)
    assert res.value == min(f.value(z) for f in funcs)
    assert res.converged is True


@pytest.mark.parametrize("make,expected", [(_split_instance, 4.439208235651419),
                                           (_process_instance, 1.4316797772376297)])
def test_values_of_the_one_restart_at_a_time_optimizer(make, expected):
    # recorded with the optimizer that ran its restarts one after another
    z, funcs = make()
    res = minimize_decomposition(z, funcs, restarts=4, max_iter=1500, seed=3)
    assert res.value == pytest.approx(expected, rel=1e-9)
    assert res.converged is True and res.iterations < 4 * 1500


def _one_restart_at_a_time(target, funcs, restarts, max_iter, rel_tol, seed):
    """Reference: the optimizer loop run restart after restart, each
    objective call on a one-row batch.  Returns (value, iterations, converged)."""
    k = len(funcs)
    scale = pow2_scale(float(np.abs(target).max()))
    z = target / scale

    def objective(X):
        last = z - X.sum(axis=0)
        v_last, g_last = funcs[-1].value_grad(last[None])
        total, grads = float(v_last[0]), np.empty_like(X)
        for j in range(k - 1):
            v, g = funcs[j].value_grad(X[j][None])
            total += float(v[0])
            grads[j] = g[0] - g_last[0]
        return total, grads

    corner_vals = [f.value(z) for f in funcs]
    best_corner = int(np.argmin(corner_vals))
    f_best, conv_best, total_iters = corner_vals[best_corner], True, 0
    X0 = np.zeros((k - 1,) + z.shape, dtype=complex)
    if best_corner < k - 1:
        X0[best_corner] = z
    for r in range(restarts):
        X = X0.copy()
        if r > 0:
            gen = philox(seed, 1000 + r)
            w = gen.random(k)
            w /= w.sum()
            noise_scale = 0.25 * float(np.abs(z).mean())
            for j in range(k - 1):
                noise = gen.standard_normal(z.shape) + 1j * gen.standard_normal(z.shape)
                X[j] = w[j] * z + noise_scale * noise
        f_run_best, X_run_best, gap, stall, it, converged = np.inf, X.copy(), 0.2, 0, 0, False
        while it < max_iter:
            with np.errstate(all="ignore"):
                f, g = objective(X)
            total_iters += 1
            it += 1
            if not np.isfinite(f):
                X, gap = X_run_best.copy(), gap * 0.5
                if gap < rel_tol:
                    break
                continue
            if not np.isfinite(f_run_best) or f < f_run_best - rel_tol * abs(f_run_best):
                f_run_best, X_run_best, stall = f, X.copy(), 0
            else:
                stall += 1
            if stall > 30:
                gap, stall, X = gap * 0.5, 0, X_run_best.copy()
                if gap < rel_tol:
                    converged = True
                    break
                continue
            gnorm2 = float((np.abs(g) ** 2).sum())
            if gnorm2 <= 1e-24 * max(f, 1e-12) ** 2:
                converged = True
                break
            if not np.all(np.isfinite(g)):
                X, gap = X_run_best.copy(), gap * 0.5
                if gap < rel_tol:
                    break
                continue
            step = (f - f_run_best * (1.0 - gap)) / gnorm2
            limit = 2.0 * max(1.0, float(np.abs(X).max()))
            if step * np.sqrt(gnorm2) > limit:
                step = limit / np.sqrt(gnorm2)
            with np.errstate(all="ignore"):
                X = X - step * g
        if f_run_best < f_best:
            f_best, conv_best = f_run_best, converged
    return f_best * scale, total_iters, conv_best


@pytest.mark.parametrize("make,restarts,max_iter", [
    (_split_instance, 4, 400), (lambda: _split_instance(seed=19), 4, 1000),
    (_process_instance, 3, 1500), (_corner_instance, 4, 700)])
def test_lockstep_matches_one_restart_at_a_time(make, restarts, max_iter):
    z, funcs = make()
    res = minimize_decomposition(z, funcs, restarts=restarts, max_iter=max_iter, seed=3)
    value, iterations, converged = _one_restart_at_a_time(z, funcs, restarts, max_iter,
                                                          1e-7, 3)
    assert res.iterations == iterations
    assert res.value == pytest.approx(value, rel=1e-12)
    assert res.converged == converged


def test_pow2_scale_is_largest_power_of_two_below():
    assert pow2_scale(7.999999999999999) == 4.0
    for k in range(-1073, 1024):
        assert pow2_scale(2.0 ** k) == 2.0 ** k
        assert pow2_scale(math.nextafter(2.0 ** k, 0.0)) == 2.0 ** (k - 1)
    assert pow2_scale(0.0) == pow2_scale(-3.0) == pow2_scale(math.inf) == 1.0
