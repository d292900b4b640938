"""Poisson random measures on a time x mark grid, and their moment bounds.

A grid partition carries time breakpoints 0 = t_1 < ... < t_{l+1} and
disjoint mark sets A_j with finite measures nu_j; the cell (i, j) has
intensity lam_ij = (t_{i+1} - t_i) * nu_j.  A refined grid has every
lam_ij <= 1, the range where the centered moments of a Poisson count are
two-sidedly comparable to lam:

    b_p * lam <= E|N - lam|^p <= c_p * lam    (0 <= lam <= 1, p >= 1)

with the analytic lower bound for p >= 2

    E|N - lam|^p >= lam * (1 + exp(-lam) * f_p(lam)),
    f_p(lam) = lam^(p-1) - lam^2 + lam - 1 + (1 - lam)^p.

b_p, c_p have no stated numeric values, so they are reported as measured
envelopes of r(lam) = E|N - lam|^p / lam over a lambda grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lq import InvalidInputError
from .prob import centered_poisson_moment
from .report import EXPLICIT, FAIL, MEASURED, PASS, CheckReport

# largest cell intensity; numpy's Poisson sampler takes lam below about 9.2e18
MAX_INTENSITY = 1e18


@dataclass(frozen=True, eq=False)
class GridPartition:
    """Time breakpoints and disjoint mark sets with positive measures."""

    time_points: np.ndarray
    j_labels: tuple
    j_measures: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.time_points, dtype=float)
        nu = np.asarray(self.j_measures, dtype=float)
        object.__setattr__(self, "time_points", t)
        object.__setattr__(self, "j_measures", nu)
        object.__setattr__(self, "j_labels", tuple(self.j_labels))
        if t.size < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise InvalidInputError("time points must start at 0 and strictly increase, "
                                    "with at least one interval")
        if len(self.j_labels) != nu.shape[0] or np.any(nu <= 0):
            raise InvalidInputError("each mark set needs a positive finite measure")
        t.setflags(write=False)
        nu.setflags(write=False)
        if not self.intensities.max() <= MAX_INTENSITY:
            raise InvalidInputError(f"every cell intensity must be at most {MAX_INTENSITY:g}, "
                                    "the range of the Poisson sampler")

    @property
    def n_intervals(self) -> int:
        return len(self.time_points) - 1

    @property
    def n_marks(self) -> int:
        return len(self.j_labels)

    @property
    def intervals(self) -> np.ndarray:
        return np.diff(self.time_points)

    @property
    def intensities(self) -> np.ndarray:
        """lam_ij = (t_{i+1} - t_i) * nu_j, shape (intervals, marks)."""
        return np.outer(self.intervals, self.j_measures)

    @property
    def is_refined(self) -> bool:
        return bool(self.intensities.max() <= 1.0 + 1e-12)

    def cells(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n_intervals) for j in range(self.n_marks)]


def lower_bound_factor(p: float, lam) -> np.ndarray:
    """lam * (1 + exp(-lam) f_p(lam)), the analytic lower bound for p >= 2."""
    lam = np.asarray(lam, dtype=float)
    f_p = lam ** (p - 1.0) - lam ** 2 + lam - 1.0 + (1.0 - lam) ** p
    return lam * (1.0 + np.exp(-lam) * f_p)


def default_lambda_grid(num: int = 60, lo: float = 1e-4, hi: float = 1.0) -> np.ndarray:
    return np.geomspace(lo, hi, num)


def verify_poisson_moment_bounds(p_list, lambda_grid=None,
                                 eps: float = 1e-12) -> list[CheckReport]:
    """Measure r(lam) = E|N-lam|^p / lam over the grid for each p.

    Reports the envelope [min r, max r]; for p >= 2 additionally asserts the
    pointwise analytic lower bound to within 1e-9.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if np.any(lambda_grid <= 0) or np.any(lambda_grid > 1):
        raise InvalidInputError("lambda grid must lie in (0, 1]")
    out = []
    for p in p_list:
        moments = np.array([centered_poisson_moment(p, lam, eps) for lam in lambda_grid])
        r = moments / lambda_grid
        ok = bool(np.all(np.isfinite(r)) and r.min() > 0)
        status = PASS if ok else FAIL
        details = {"envelope_low": float(r.min()), "envelope_high": float(r.max()),
                   "grid_points": len(lambda_grid)}
        if p >= 2:
            lb = lower_bound_factor(p, lambda_grid)
            margin = float((moments - lb).min())
            details["analytic_lower_margin"] = margin
            if margin < -1e-9:
                status = FAIL
        out.append(CheckReport(
            check_id="poisson_moment_bounds", lhs=float(r.min()), rhs=float(r.max()),
            constant=math.nan, provenance=MEASURED if p < 2 else EXPLICIT,
            status=status, p=float(p), q=None, tolerance=1e-9, details=details))
    return out
