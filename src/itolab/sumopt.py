"""Subgradient machinery for infimal-convolution (sum) norms.

The sum norm ||z||_{X_1+...+X_k} = inf { sum_j N_j(x_j) : sum_j x_j = z } is
minimized over decompositions by projected-free subgradient descent with
Polyak-style steps and seeded random restarts.  Every component functional is
a norm of an affine image of the variables, so the objective is convex; the
returned value is always an upper bound on the infimum (any feasible
decomposition certifies one).

The restarts advance in lockstep: the iterate is a batch of decompositions
with a leading restart axis, every ``value_grad`` takes and returns tables
with that leading batch axis, and one objective call per iteration serves
every restart still running.  Each restart keeps its own step-size state and
stops on its own rule, exactly as if it ran alone.

Targets are normalized by a power of two before optimizing, which makes the
reported value exactly positively homogeneous under power-of-two scalings of
the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prob import philox

# the one stopping tolerance: a restart improves only by more than this relative
# amount, and stops once its halved Polyak gap falls below it
REL_TOL = 1e-7


class OptimizerError(RuntimeError):
    """The sum-norm optimizer ended without a finite value on any restart."""


class NormFunctional:
    """Interface: a convex positively homogeneous functional of a complex table."""

    def value(self, table: np.ndarray) -> float:
        """The value of one table: ``value_grad`` on a batch of one, so every
        value and its gradient come from one route."""
        return float(self.value_grad(table[None])[0][0])

    def value_grad(self, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For a batch (B, *table) returns values (B,) and gradients (B, *table)
        with df = Re <g, dTable> per row, and g = 0 on rows whose value is 0."""
        raise NotImplementedError


def per_row(x: np.ndarray, ndim: int) -> np.ndarray:
    """View a per-row array (B, ...) with trailing unit axes up to ``ndim``, so
    that it broadcasts against a batch of tables."""
    return x.reshape(x.shape + (1,) * (ndim - x.ndim))


class MaxFunctional(NormFunctional):
    """Pointwise max of component functionals (intersection norm)."""

    def __init__(self, parts: list[NormFunctional]):
        self.parts = parts

    def value_grad(self, tables):
        # first maximum per row: a later part wins only if strictly larger,
        # so ties go to the earlier part and a NaN value is never replaced
        best_v, best_g = self.parts[0].value_grad(tables)
        for p in self.parts[1:]:
            v, g = p.value_grad(tables)
            take = v > best_v
            best_v = np.where(take, v, best_v)
            best_g = np.where(per_row(take, g.ndim), g, best_g)
        return best_v, best_g


@dataclass(eq=False)
class DecompositionResult:
    """``converged`` belongs to the returned decomposition: the stopping rule
    of the restart it came from (gap exhausted by stalls, or a vanishing
    gradient), or True when no restart improved on the best corner."""
    value: float
    parts: list[np.ndarray]
    iterations: int
    converged: bool


def pow2_scale(x: float) -> float:
    """Largest power of two <= x (1.0 for x <= 0); division by it is exact."""
    if x <= 0 or not math.isfinite(x):
        return 1.0
    return math.ldexp(0.5, math.frexp(x)[1])


def minimize_decomposition(target: np.ndarray, funcs: list[NormFunctional], *,
                           restarts: int = 8, max_iter: int = 5000,
                           seed: int = 0) -> DecompositionResult:
    """Minimize sum_j funcs[j](x_j) subject to sum_j x_j = target.

    ``iterations`` is the sum of the restarts' own iteration counts.
    """
    target = np.asarray(target, dtype=complex)
    k = len(funcs)
    if k == 1:
        return DecompositionResult(funcs[0].value(target), [target], 0, True)
    amax = float(np.abs(target).max()) if target.size else 0.0
    if amax == 0.0:
        return DecompositionResult(0.0, [np.zeros_like(target) for _ in range(k)], 0, True)
    scale = pow2_scale(amax)
    z = target / scale

    def objective(X):
        """Values (n,) and gradients (n, k-1, *shape) of n decompositions."""
        total, g_last = funcs[-1].value_grad(z - X.sum(axis=1))
        grads = np.empty_like(X)
        for j in range(k - 1):
            v, g = funcs[j].value_grad(X[:, j])
            total = total + v
            grads[:, j] = g - g_last
        return total, grads

    # corner candidates: all mass assigned to a single summand
    corner_vals = [funcs[j].value(z) for j in range(k)]
    best_corner = int(np.argmin(corner_vals))
    f_best = corner_vals[best_corner]
    X_best = np.zeros((k - 1,) + z.shape, dtype=complex)
    if best_corner < k - 1:
        X_best[best_corner] = z
    converged = True

    # restart 0 starts at the best corner, restart r >= 1 at a seeded random point
    X = np.empty((restarts, k - 1) + z.shape, dtype=complex)
    X[:1] = X_best
    noise_scale = 0.25 * float(np.abs(z).mean())
    for r in range(1, restarts):
        gen = philox(seed, 1000 + r)
        w = gen.random(k)
        w /= w.sum()
        for j in range(k - 1):
            noise = gen.standard_normal(z.shape) + 1j * gen.standard_normal(z.shape)
            X[r, j] = w[j] * z + noise_scale * noise

    # per-restart results, written when a restart stops
    f_out = np.full(restarts, np.inf)
    X_out = np.empty_like(X)
    conv_out = np.zeros(restarts, dtype=bool)
    it_out = np.zeros(restarts, dtype=int)

    # state of the running restarts; a restart that stops is dropped from all of it
    n = restarts if max_iter > 0 else 0
    ids = np.arange(n)
    X = X[:n]
    X_run_best = X.copy()
    f_run_best = np.full(n, np.inf)
    gap = np.full(n, 0.2)
    stall = np.zeros(n, dtype=int)
    it = np.zeros(n, dtype=int)
    with np.errstate(all="ignore"):
        while n:
            f, g = objective(X)
            it += 1
            finite = np.isfinite(f)
            improved = finite & (~np.isfinite(f_run_best)
                                 | (f < f_run_best - REL_TOL * np.abs(f_run_best)))
            f_run_best = np.where(improved, f, f_run_best)
            np.copyto(X_run_best, X, where=per_row(improved, X.ndim))
            stall = np.where(improved, 0, stall + finite)
            stalled = stall > 30
            stall[stalled] = 0
            gnorm2 = (np.abs(g) ** 2).reshape(n, -1).sum(axis=1)
            # rows past the value and stall tests meet the gradient tests
            checked = finite & ~stalled
            flat = checked & (gnorm2 <= 1e-24 * np.maximum(f, 1e-12) ** 2)
            bad_grad = checked & ~flat & ~np.isfinite(g).reshape(n, -1).all(axis=1)
            # a non-finite value, a stall or a non-finite gradient sends the
            # restart back to its best point with half the Polyak gap
            reset = ~checked | bad_grad
            gap = np.where(reset, 0.5 * gap, gap)
            exhausted = reset & (gap < REL_TOL)
            step = (f - f_run_best * (1.0 - gap)) / gnorm2
            # keep iterates bounded; the Polyak step can blow up on flat spots
            limit = 2.0 * np.maximum(1.0, np.abs(X).reshape(n, -1).max(axis=1))
            root = np.sqrt(gnorm2)
            step = np.where(step * root > limit, limit / root, step)
            X = X - per_row(step, g.ndim) * g
            np.copyto(X, X_run_best, where=per_row(reset, X.ndim))
            done = flat | exhausted | (it >= max_iter)
            if done.any():
                out = ids[done]
                f_out[out] = f_run_best[done]
                X_out[out] = X_run_best[done]
                conv_out[out] = (flat | (stalled & exhausted))[done]
                it_out[out] = it[done]
                keep = ~done
                ids, X, X_run_best = ids[keep], X[keep], X_run_best[keep]
                f_run_best, gap, stall, it = f_run_best[keep], gap[keep], stall[keep], it[keep]
                n = len(ids)

    # restart order, strict improvement: ties keep the earlier candidate
    for r in range(restarts):
        if f_out[r] < f_best:
            f_best, X_best, converged = float(f_out[r]), X_out[r], bool(conv_out[r])
    if not math.isfinite(f_best):
        raise OptimizerError("sum-norm optimizer failed to produce a finite value")
    parts = [X_best[j] * scale for j in range(k - 1)]
    parts.append(target - sum(parts))
    return DecompositionResult(f_best * scale, parts, int(it_out.sum()), converged)
