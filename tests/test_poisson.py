import math

import numpy as np
import pytest

from itolab.poisson import (GridPartition, default_lambda_grid, lower_bound_factor,
                            verify_poisson_moment_bounds)
from itolab.prob import centered_poisson_moment


def test_realize_statistics():
    grid = GridPartition(np.array([0.0, 1.0]), ("A",), np.array([0.6]))
    n = 10 ** 5
    lam = 0.6
    comps = np.empty(n)
    counts = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64))
                                 ).poisson(lam, size=n)
    comps = counts - lam
    assert abs(comps.mean()) <= 3 * math.sqrt(lam / n)
    var_target = centered_poisson_moment(2.0, lam)
    sd = (comps ** 2).std() / math.sqrt(n)
    assert abs((comps ** 2).mean() - var_target) <= 3 * sd


def test_compensated_mean_zero_under_truncation():
    from itolab.prob import truncated_poisson
    lam = 0.8
    tp = truncated_poisson(lam, 1e-12)
    ks = np.arange(tp.cutoff + 1)
    mean_comp = float(((ks - lam) * tp.probs).sum())
    # discarded mass at counts > K biases the mean by at most ~ (K+2) * tail
    assert abs(mean_comp) <= 2 * (tp.cutoff + 2) * tp.tail_bound + 1e-14


def test_disjoint_cell_additivity_chi_square():
    # merging two cells vs drawing once: two-sample chi-square, statistical flag
    from scipy import stats
    from itolab.prob import philox
    lam1, lam2 = 0.4, 0.7
    n = 20000
    gen = philox(123, 0)
    merged = gen.poisson(lam1 + lam2, size=n)
    split = gen.poisson(lam1, size=n) + gen.poisson(lam2, size=n)
    hi = int(max(merged.max(), split.max()))
    bins = np.arange(hi + 2)
    m_counts = np.bincount(merged, minlength=hi + 1)
    s_counts = np.bincount(split, minlength=hi + 1)
    keep = (m_counts + s_counts) >= 10
    table = np.stack([m_counts[keep], s_counts[keep]])
    _, pvalue, _, _ = stats.chi2_contingency(table)
    assert pvalue > 0.01, "statistical flag (not a hard failure under reruns)"


def test_lower_bound_factor_formula():
    # f_p(lam) = lam^(p-1) - lam^2 + lam - 1 + (1-lam)^p, spot value by hand
    lam, p = 0.5, 3.0
    f_p = lam ** 2 - lam ** 2 + lam - 1 + (1 - lam) ** 3
    assert lower_bound_factor(p, lam) == pytest.approx(lam * (1 + math.exp(-lam) * f_p))


def test_verify_reports_pass_and_envelopes():
    reports = verify_poisson_moment_bounds([2.0, 2.5, 3.0, 4.0])
    for rep in reports:
        assert rep.status == "pass"
        assert rep.details["envelope_low"] > 0
        assert math.isfinite(rep.details["envelope_high"])
        if rep.p >= 2:
            assert rep.details["analytic_lower_margin"] >= -1e-9


def test_verify_p2_ratio_is_one():
    rep = verify_poisson_moment_bounds([2.0])[0]
    assert rep.details["envelope_low"] == pytest.approx(1.0, abs=1e-9)
    assert rep.details["envelope_high"] == pytest.approx(1.0, abs=1e-9)


def test_verify_p4_small_lambda_limit():
    # series oracle at lam = 1e-4: r -> 1 + 3 lam
    lam = 1e-4
    r = centered_poisson_moment(4.0, lam) / lam
    assert r == pytest.approx(1.0 + 3 * lam, rel=1e-6)


def test_verify_p1_envelope_reported():
    rep = verify_poisson_moment_bounds([1.0])[0]
    assert rep.provenance == "measured-envelope"
    assert 0 < rep.details["envelope_low"] <= rep.details["envelope_high"] < 10


def test_ratio_grid_no_nan():
    grid = np.geomspace(1e-6, 1.0, 40)
    for p in (1.0, 2.5, 4.0):
        r = np.array([centered_poisson_moment(p, lam) / lam for lam in grid])
        assert np.all(np.isfinite(r))
        assert np.all(r > 0)


def test_envelope_stable_under_grid_doubling():
    for p in (2.0, 2.5, 3.0, 4.0):
        r60 = verify_poisson_moment_bounds([p], default_lambda_grid(60))[0]
        r120 = verify_poisson_moment_bounds([p], default_lambda_grid(120))[0]
        for key in ("envelope_low", "envelope_high"):
            assert r120.details[key] == pytest.approx(r60.details[key], rel=0.01)


def test_grid_validation():
    with pytest.raises(Exception):
        GridPartition(np.array([0.5, 1.0]), ("A",), np.array([1.0]))
    with pytest.raises(Exception):
        GridPartition(np.array([0.0, 1.0]), ("A",), np.array([-1.0]))
    with pytest.raises(Exception):
        verify_poisson_moment_bounds([2.0], np.array([0.5, 2.0]))
