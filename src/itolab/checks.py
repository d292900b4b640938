"""One checker per inequality, each returning a CheckReport.

Constants policy: constants stated by the source results are hard
assertions (provenance "explicit"); implicit comparison constants become
measured envelopes or, when the user configures a stand-in factor, hard
assertions with provenance "configured".  A ``details`` ratio of two zero
sides reads 0 (``report.ratio``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import integrator
from .lq import InvalidInputError, LqElement, batch_norm_q, conjugate_exponent, power_mean
from .prob import BudgetExceededError, exact_moment, law_moment, sign_matrix
from .report import (CONFIGURED, EXPLICIT, FAIL, MEASURED, NOT_FINITE, PASS,
                     REPORT_ONLY, CheckReport, ratio)
from .seqnorms import (LqSequence, composite_norm, norm_D, norm_S, regime_select,
                       square_sum_norm)
from .sumopt import pow2_scale

# relative slack of a verdict on exact moments, and of the bounds that compose
# several moments and norms (pq_ge2, rosenthal_lq and the matrix bounds)
REL_SLACK, BOUND_SLACK = 1e-12, 1e-9
# optimizer budget of check_rosenthal_lq and check_ito_isomorphism
CHECK_RESTARTS, CHECK_MAX_ITER = 4, 1500
# most items whose 2^n sign patterns are enumerated, and the checks that
# enumerate them (through _sign_sum_norms)
MAX_SIGN_ITEMS = 24
SIGN_SUM_CHECKS = frozenset({"khintchine", "kahane", "type_cotype", "symmetrization"})


# -- constant table ------------------------------------------------------------


def kahane_kappa(p: float, q: float) -> float:
    """Bound on the moment-comparison constant: 1 for p <= q, else
    sqrt((p-1)/(q-1))."""
    if p <= q:
        return 1.0
    if q <= 1:
        raise InvalidInputError("kappa bound needs q > 1")
    return math.sqrt((p - 1.0) / (q - 1.0))


def buchholz_even(q: int) -> float:
    """Exact K_{q,q} for even integer q: (q! / (2^(q/2) (q/2)!))^(1/q), through
    log-gamma where the quotient overflows a float (q >= 302)."""
    n = q // 2
    try:
        return (math.factorial(q) / (2 ** n * math.factorial(n))) ** (1.0 / q)
    except OverflowError:
        return math.exp((math.lgamma(q + 1.0) - n * math.log(2.0) - math.lgamma(n + 1.0)) / q)


def khintchine_upper(p: float, q: float) -> float:
    """Upper Khintchine constant K_{p,q} against the max of the square functions.

    q >= 2 uses K_{q,q} <= sqrt(q) (exact Buchholz value at even integers)
    and K_{p,q} <= kappa_{p,q} K_{q,q} for p > q.  For q < 2 the second-moment
    bound holds with constant 1 (the decomposition infimum is dominated by
    either square function), extended to p > 2 by kappa_{p,2}.
    """
    if q >= 2:
        if abs(q - round(q)) < 1e-12 and int(round(q)) % 2 == 0:
            base = buchholz_even(int(round(q)))
        else:
            base = math.sqrt(q)
        if p <= q:
            return base
        return kahane_kappa(p, q) * base
    if p <= 2:
        return 1.0
    return kahane_kappa(p, 2.0)


def c_pq(p: float, q: float) -> float:
    """C_{p,q} = 2 K_{p,q}."""
    return 2.0 * khintchine_upper(p, q)


def c_pd(p: float, d: int) -> float:
    """Dimension-dependent operator-norm Khintchine constant, of order
    e * min(sqrt(2) sqrt(p-1), sqrt(log d)); small d and p < 2 clamp to the
    p-branch so the bound stays monotone."""
    p_eff = max(p, 2.0)
    p_branch = math.e * math.sqrt(2.0) * math.sqrt(p_eff - 1.0)
    ld = math.log(max(d, 1))
    if ld < 2.0:
        return p_branch
    return min(p_branch, math.e * math.sqrt(ld))


def hj_shape(p: float) -> float:
    """p / log(2p), the moment growth shape of the maximal-term bound; the
    logarithm is log 2 + log p where 2p overflows."""
    two_p = 2.0 * p
    return p / (math.log(two_p) if math.isfinite(two_p) else math.log(2.0) + math.log(p))


@dataclass
class ConstantTable:
    """Configurable stand-ins for implicit absolute constants.

    ``None`` keeps the corresponding check report-only.
    """

    hj_factor: float | None = None
    rosenthal_factor: float | None = None
    umd_constant: float | None = None
    latala_constant: float | None = None
    ito_band: float = 16.0


DEFAULT_TABLE = ConstantTable()


# -- shared kernels ------------------------------------------------------------


def _sign_sum_norms(seq: LqSequence, q: float) -> np.ndarray:
    """||sum_i r_i f_i||_q per sign pattern (rows) and atom (columns)."""
    n = seq.n_items
    if n > MAX_SIGN_ITEMS:
        raise InvalidInputError(f"sign enumeration capped at n = {MAX_SIGN_ITEMS}")
    sums = np.tensordot(sign_matrix(n), seq.values, axes=(1, 0))  # (2^n, atoms, *elem)
    weights = seq.elem_space.weights if seq.elem_space is not None else None
    return batch_norm_q(sums, q, weights)


def rademacher_sum_moment(xs: list[LqElement], q: float, ps: tuple[float, ...]) -> list[float]:
    """Exact (E || sum_i r_i x_i ||_q^p)^(1/p) for each p of ``ps``, from one
    enumeration of the sign patterns."""
    norms = _sign_sum_norms(LqSequence.deterministic(xs), q)[:, 0]
    return [power_mean(norms, 1.0 / len(norms), p) for p in ps]


def randomized_sum_moment(seq: LqSequence, p: float, q: float) -> float:
    """(E_r E || sum_i r_i f_i ||_q^p)^(1/p), exact in both layers."""
    pw = (_sign_sum_norms(seq, q) ** p) @ seq.space.probs
    return float(pw.mean() ** (1.0 / p))


def little_rosenthal_term(seq: LqSequence, p: float, q: float) -> float:
    """(E (sum_i ||f_i||_q^q)^(p/q))^(1/p)."""
    weights = seq.elem_space.weights if seq.elem_space is not None else None
    norms = batch_norm_q(seq.values, q, weights)       # (items, atoms)
    inner = (norms ** q).sum(axis=0)
    return float(((inner ** (p / q)) @ seq.space.probs) ** (1.0 / p))


def relative_slack(tolerance: float, details: dict, *sides: float,
                   floor: float = 1e-300) -> float:
    """tolerance times the largest side, at least ``floor``; NaN, noted in
    ``details``, when a side is not finite, so that no comparison with it holds."""
    if all(map(math.isfinite, sides)):
        return tolerance * max(*sides, floor)
    details["note"] = NOT_FINITE
    return math.nan


def _require_mean_zero(seq: LqSequence):
    m = np.tensordot(seq.space.probs, seq.values, axes=(0, 1))
    scale = max(float(np.abs(seq.values).max()), 1e-300)
    if float(np.abs(m).max()) > 1e-9 * scale:
        raise InvalidInputError("sequence items must be mean-zero")


# -- checks ---------------------------------------------------------------------


def check_khintchine(xs: list[LqElement], p: float, q: float, *,
                     seed: int = 0) -> CheckReport:
    """Rademacher sums against the square functions, exact sign enumeration.

    q >= 2: second-moment lower bound at constant exactly 1, p-th-moment upper
    bound at K_{p,q} = khintchine_upper(p, q).  q < 2: constant-1 upper bound
    at the second moment against the decomposition infimum (here, its
    optimizer upper bound); the reverse direction is a recorded ratio.
    """
    lhs_p, lhs_2, lhs_q = rademacher_sum_moment(xs, q, (p, 2.0, q))
    seq = LqSequence.deterministic(xs)
    col, row = norm_S(seq, q, "column"), norm_S(seq, q, "row")
    sq_max = max(col, row)
    details = {"moment_p": lhs_p, "moment_2": lhs_2, "column": col, "row": row}
    if q >= 2:
        K = khintchine_upper(p, q)
        slack = relative_slack(REL_SLACK, details, lhs_p, sq_max)
        ok_lower = lhs_2 >= sq_max - slack
        ok_upper = lhs_p <= K * sq_max + slack
        details["lower_margin"] = lhs_2 - sq_max
        status = PASS if (ok_lower and ok_upper) else FAIL
        return CheckReport("khintchine", lhs_p, sq_max, K, EXPLICIT, status,
                           p=p, q=q, tolerance=REL_SLACK, details=details)
    inf_value = square_sum_norm(seq, q, seed=seed)
    details["decomposition_infimum_upper"] = inf_value
    details["reverse_ratio"] = ratio(inf_value, lhs_q)
    ok_upper = lhs_2 <= inf_value + relative_slack(REL_SLACK, details, lhs_2, inf_value)
    return CheckReport("khintchine", lhs_2, inf_value, 1.0, EXPLICIT,
                       PASS if ok_upper else FAIL, p=p, q=q,
                       tolerance=REL_SLACK, details=details)


def check_symmetrization(seq: LqSequence, p: float, q: float) -> CheckReport:
    """Randomized vs plain sum moments, both constants (1/2 and 2) exact."""
    _require_mean_zero(seq)
    plain = exact_moment(seq.sum_variable(), p, q)
    rand = randomized_sum_moment(seq, p, q)
    details = {"plain": plain, "randomized": rand,
               "ratio": ratio(rand, plain)}
    slack = relative_slack(REL_SLACK, details, plain, rand)
    ok = (rand <= 2.0 * plain + slack) and (rand >= 0.5 * plain - slack)
    return CheckReport("symmetrization", rand, plain, 2.0, EXPLICIT,
                       PASS if ok else FAIL, p=p, q=q, tolerance=REL_SLACK, details=details)


def check_kahane(xs: list[LqElement], p: float, q: float, *,
                 norm_exp: float = 2.0) -> CheckReport:
    """Moment comparison of Rademacher sums: p-th vs q-th moment of the same
    Banach norm (exponent ``norm_exp``)."""
    m_p, m_q = rademacher_sum_moment(xs, norm_exp, (p, q))
    details = {"ratio": ratio(m_p, m_q)}
    if q <= 1:
        return CheckReport("kahane", m_p, m_q, math.nan, MEASURED, REPORT_ONLY,
                           p=p, q=q, details=details)
    bound = kahane_kappa(p, q)
    ok = m_p <= bound * m_q + relative_slack(REL_SLACK, details, m_p, m_q)
    return CheckReport("kahane", m_p, m_q, bound, EXPLICIT, PASS if ok else FAIL,
                       p=p, q=q, tolerance=REL_SLACK, details=details)


def check_rosenthal_scalar(seq: LqSequence, p: float, *,
                           table: ConstantTable = DEFAULT_TABLE) -> CheckReport:
    """Scalar sums: max{(sum E|xi|^p)^(1/p), (sum E|xi|^2)^(1/2)} <= 2 * moment,
    and the p/log p upper direction (configured constant, else report-only)."""
    if p < 2:
        raise InvalidInputError("the scalar two-sided bound needs p >= 2")
    _require_mean_zero(seq)
    moment = exact_moment(seq.sum_variable(), p, 2.0)
    term_p = norm_D(seq, p, 2.0)
    term_2 = norm_D(seq, 2.0, 2.0)
    rhs_max = max(term_p, term_2)
    details = {"moment": moment, "term_p": term_p, "term_2": term_2,
               "upper_shape": p / math.log(max(p, 1.0 + 1e-9))}
    slack = relative_slack(REL_SLACK, details, moment, rhs_max)
    ok_lower = rhs_max <= 2.0 * moment + slack
    status = PASS if ok_lower else FAIL
    if table.rosenthal_factor is not None:
        c = table.rosenthal_factor * details["upper_shape"]
        ok_upper = moment <= c * rhs_max + slack
        status = PASS if (ok_lower and ok_upper) else FAIL
        details["upper_constant"] = c
    return CheckReport("rosenthal_scalar", rhs_max, moment, 2.0, EXPLICIT, status,
                       p=p, q=2.0, tolerance=REL_SLACK, details=details)


def check_rosenthal_positive(seq: LqSequence, p: float) -> CheckReport:
    """Positive scalar sums: measured ratio against
    max{(sum E f^p)^(1/p), sum E f}; the constant is implicit."""
    vals = seq.values
    if float(np.abs(vals.imag).max()) > 0 or float(vals.real.min()) < 0:
        raise InvalidInputError("items must be nonnegative")
    sums = vals.real.sum(axis=0)[:, 0]
    moment = power_mean(sums, seq.space.probs, p)
    term_p = norm_D(seq, p, 2.0)
    term_1 = float(sums @ seq.space.probs)
    rhs = max(term_p, term_1)
    return CheckReport("rosenthal_positive", moment, rhs, math.nan, MEASURED,
                       REPORT_ONLY, p=p, q=1.0,
                       details={"ratio": ratio(moment, rhs), "term_p": term_p, "term_sum": term_1})


def check_hoffmann_jorgensen(seq: LqSequence, p: float, q: float, *,
                             table: ConstantTable = DEFAULT_TABLE) -> CheckReport:
    """Moment vs first moment plus maximal term, scaled by p/log(2p)."""
    _require_mean_zero(seq)
    weights = seq.elem_space.weights if seq.elem_space is not None else None
    sum_norms = batch_norm_q(seq.sum_variable().values, q, weights)
    lhs, first = (power_mean(sum_norms, seq.space.probs, e) for e in (p, 1.0))
    max_term = power_mean(batch_norm_q(seq.values, q, weights).max(axis=0),
                          seq.space.probs, p)
    shape = hj_shape(p)
    denom = shape * (first + max_term)
    details = {"first_moment": first, "max_term": max_term, "shape": shape}
    # an overflowed side has no ratio, and no verdict even when configured
    finite = math.isfinite(lhs) and math.isfinite(denom)
    if finite:
        details["ratio"] = ratio(lhs, denom)
    else:
        details["note"] = NOT_FINITE
    if table.hj_factor is not None:
        ok = finite and lhs <= table.hj_factor * denom
        return CheckReport("hoffmann_jorgensen", lhs, denom, table.hj_factor,
                           CONFIGURED, PASS if ok else FAIL, p=p, q=q, details=details)
    return CheckReport("hoffmann_jorgensen", lhs, denom, math.nan, MEASURED,
                       REPORT_ONLY, p=p, q=q, details=details)


def check_pq_ge2_equivalence(seq: LqSequence, p: float, q: float) -> CheckReport:
    """Two-sided moment bound for 2 <= p, q with fully explicit constants.

    Upper: moment <= C_{p,q} (1+sqrt2) max{S_c, S_r, C_{p/2,q/2} * little}.
    Lower: moment >= (1/2) max{kappa_{q,p}^{-1} * little, S_c, S_r},
    where little = (E (sum_i ||xi_i||_q^q)^(p/q))^(1/p).
    """
    if p < 2 or q < 2:
        raise InvalidInputError("this equivalence needs 2 <= p, q")
    _require_mean_zero(seq)
    moment = exact_moment(seq.sum_variable(), p, q)
    s_col, s_row = norm_S(seq, q, "column"), norm_S(seq, q, "row")
    little = little_rosenthal_term(seq, p, q)
    upper_c = c_pq(p, q) * (1.0 + math.sqrt(2.0))
    inner_c = c_pq(p / 2.0, q / 2.0)
    rhs_upper = max(s_col, s_row, inner_c * little)
    rhs_lower = max(little / kahane_kappa(q, p), s_col, s_row)
    details = {"moment": moment, "s_column": s_col, "s_row": s_row,
               "little_rosenthal": little, "upper_constant": upper_c,
               "inner_constant": inner_c,
               "upper_slack": upper_c * rhs_upper - moment,
               "lower_slack": moment - 0.5 * rhs_lower}
    slack = relative_slack(BOUND_SLACK, details, moment, rhs_upper)
    ok_upper = moment <= upper_c * rhs_upper + slack
    ok_lower = moment >= 0.5 * rhs_lower - slack
    return CheckReport("pq_ge2", moment, rhs_upper, upper_c, EXPLICIT,
                       PASS if (ok_upper and ok_lower) else FAIL,
                       p=p, q=q, tolerance=BOUND_SLACK, details=details)


def check_rosenthal_lq(seq: LqSequence, p: float, q: float, *, seed: int = 0) -> CheckReport:
    """Sum moment vs the six-regime composite norm.

    The composite ratio is always recorded.  Explicit-constant sub-bounds are
    asserted where available: the two-sided p,q >= 2 equivalence, the
    constant-2 square-function bounds, and the constant-4 decomposition bound
    for p, q <= 2.  Mixed regimes stay report-only.
    """
    mode = "commutative" if seq.kind == "commutative" else "noncommutative"
    _require_mean_zero(seq)
    scale0 = pow2_scale(float(np.abs(seq.values).max()))
    seq = seq.scaled(1.0 / scale0)
    moment = exact_moment(seq.sum_variable(), p, q)
    spec = regime_select(p, q, mode)
    comp = composite_norm(seq, spec, restarts=CHECK_RESTARTS, max_iter=CHECK_MAX_ITER,
                          seed=seed)
    rhs = comp.value
    details = {"ratio": ratio(moment, rhs), "case_id": spec.case_id,
               "node_values": comp.node_values}
    hard: list[bool] = []
    s_col, s_row = norm_S(seq, q, "column"), norm_S(seq, q, "row")
    slack = relative_slack(BOUND_SLACK, details, moment, rhs, s_col, s_row)
    if p >= 2 and q >= 2:
        sub = check_pq_ge2_equivalence(seq, p, q)
        details["explicit_two_sided"] = sub.status
        hard.append(sub.status == PASS)
        hard.append(max(s_col, s_row) <= 2.0 * moment + slack)
    elif p <= 2 and q <= 2:
        hard.append(moment <= 2.0 * min(s_col, s_row) + slack)
        inf_up = square_sum_norm(seq, q, restarts=CHECK_RESTARTS,
                                 max_iter=CHECK_MAX_ITER, seed=seed)
        hard.append(moment <= 4.0 * inf_up + slack)
        details["square_decomposition_upper"] = inf_up
    if hard:
        status = PASS if all(hard) else FAIL
        provenance = EXPLICIT
    else:
        status = REPORT_ONLY
        provenance = MEASURED
    return CheckReport("rosenthal_lq", moment, rhs, math.nan, provenance, status,
                       p=p, q=q, case_id=str(spec.case_id), tolerance=BOUND_SLACK,
                       details=details)


def check_type_cotype(xs: list[LqElement], q: float) -> CheckReport:
    """Type-min(q,2) and cotype-max(q,2) comparisons, measured envelopes only."""
    s_type = min(q, 2.0)
    s_cotype = max(q, 2.0)
    (m2,) = rademacher_sum_moment(xs, q, (2.0,))
    seq = LqSequence.deterministic(xs)
    ell_type, ell_cotype = norm_D(seq, s_type, q), norm_D(seq, s_cotype, q)
    return CheckReport("type_cotype", m2, ell_type, math.nan, MEASURED, REPORT_ONLY,
                       p=2.0, q=q,
                       details={"type_ratio": ratio(m2, ell_type),
                                "cotype_ratio": ratio(ell_cotype, m2),
                                "type_s": s_type, "cotype_s": s_cotype,
                                "ell_cotype": ell_cotype})


# -- integral checks -------------------------------------------------------------


def check_decoupling(F, p: float, q: float, *, table: ConstantTable = DEFAULT_TABLE,
                     eps: float = 1e-10, tolerance: float = 1e-8) -> CheckReport:
    """Coupled vs decoupled integral moments at the final time.

    Deterministic integrands have identical laws on both sides, so the ratio
    is asserted to be 1 within the truncation tolerance.  Adapted integrands
    are a recorded ratio unless a stand-in martingale-transform constant is
    configured.
    """
    model = integrator.build_exact_model(F, eps, decoupled=True)
    lhs = exact_moment(integrator.integrate_exact(model), p, q)
    rhs = exact_moment(integrator.integrate_exact(model, use_copy=True), p, q)
    r = lhs / rhs if rhs > 0 else (1.0 if lhs == 0 else math.inf)
    details = {"ratio": r, "truncation_tail": model.truncation_tail,
               "deterministic": F.is_deterministic}
    if F.is_deterministic:
        ok = abs(r - 1.0) <= tolerance
        return CheckReport("decoupling", lhs, rhs, 1.0, EXPLICIT,
                           PASS if ok else FAIL, p=p, q=q, tolerance=tolerance,
                           details=details)
    if table.umd_constant is not None:
        ok = lhs <= table.umd_constant * rhs + relative_slack(tolerance, details, lhs, rhs)
        return CheckReport("decoupling", lhs, rhs, table.umd_constant, CONFIGURED,
                           PASS if ok else FAIL, p=p, q=q, tolerance=tolerance,
                           details=details)
    return CheckReport("decoupling", lhs, rhs, math.nan, MEASURED, REPORT_ONLY,
                       p=p, q=q, details=details)


# truncation and atom budget of the exact Itô path; above it, Monte Carlo
ITO_EPS, ITO_EXACT_BUDGET = 1e-10, 100_000


def _ito_member(F, p: float, q: float, n_samples: int, seed: int,
                stream: int) -> tuple[float, float, bool, float]:
    """(terminal moment, its 3-sigma CI half-width, Monte Carlo?, regime
    process norm) of one process at its final time: exact on the truncated
    product space where it fits the budget, else from sampled paths."""
    try:
        model = integrator.build_exact_model(F, ITO_EPS, ITO_EXACT_BUDGET)
        moment, ci = exact_moment(integrator.integrate_exact(model), p, q), 0.0
    except BudgetExceededError:
        model = None
        norms = integrator.sample_paths(F, q, n_samples, seed, stream=stream)
        moment, ci = law_moment(norms[:, -1], None, p)
    value = integrator.process_norm(F, p, q, model=model, restarts=CHECK_RESTARTS,
                                    max_iter=CHECK_MAX_ITER, seed=seed)
    return moment, ci, model is None, value


def check_ito_isomorphism(family: list, p: float, q: float, *,
                          table: ConstantTable = DEFAULT_TABLE,
                          n_samples: int = 10_000, seed: int = 0) -> CheckReport:
    """Stability of R(F) = terminal moment / regime process norm over a family.

    Exact enumeration where the truncated product space fits the budget,
    Monte Carlo with 3-sigma CI widening elsewhere.  Passes when the widened
    ratio band max R / min R stays within the configured band, and when
    R(32 F) matches R(F) to a relative 1e-12 for the first member.
    """
    members = []
    r_lo, r_hi = [], []
    for idx, F in enumerate(family):
        G = F.scaled(1.0 / pow2_scale(F.max_abs())) if F.is_deterministic else F
        moment, ci, mc, value = _ito_member(G, p, q, n_samples, seed, idx)
        R = moment / value if value > 0 else math.inf
        members.append({"moment": moment, "norm": value, "R": R,
                        "ci_half": ci, "monte_carlo": mc})
        r_lo.append((moment - ci) / value if value > 0 else math.inf)
        r_hi.append((moment + ci) / value if value > 0 else math.inf)
    band = table.ito_band
    ratio_band = max(r_hi) / min(r_lo) if 0 < min(r_lo) < math.inf else math.inf
    # scale invariance of the first member: R of 32 times its rescaled table;
    # its grid fits the budget as member 0's did.  A zero F_0 (R = inf) is
    # skipped; a zero family's band is inf
    F0 = family[0]
    inv_gap = 0.0
    if F0.is_deterministic and not members[0]["monte_carlo"] and members[0]["norm"] > 0:
        mom, _, _, val = _ito_member(F0.scaled(32.0 / pow2_scale(F0.max_abs())), p, q,
                                     n_samples, seed, 0)
        r1, r2 = members[0]["R"], mom / val
        inv_gap = abs(r1 - r2) / max(abs(r1), 1e-300)
    ok = ratio_band <= band and inv_gap <= 1e-12
    spec = regime_select(p, q, "commutative" if family[0].elem_space is not None
                         else "noncommutative")
    return CheckReport("ito_isomorphism", max(r_hi), min(r_lo), band, CONFIGURED,
                       PASS if ok else FAIL, p=p, q=q, case_id=str(spec.case_id),
                       # the verdict reads no tolerance; 1e-4 keeps the CSV bytes
                       tolerance=1e-4,
                       details={"ratio_band": ratio_band, "members": members,
                                "scale_invariance_gap": inv_gap})


def check_doob(F, p: float, q: float, *, n_samples: int = 4000, seed: int = 0) -> CheckReport:
    """Running-max moment up to the final time dominated by p' times the
    terminal moment.

    Statistical: both sides are estimated from the same paths and the
    threshold is widened by their 3-sigma CI half-widths.
    """
    (lhs, ci), (terminal, terminal_ci) = integrator.running_max_moment(F, p, q, n_samples, seed)
    p_prime = conjugate_exponent(p)
    rhs = p_prime * terminal
    widen = ci + p_prime * terminal_ci
    ok = lhs <= rhs + widen
    return CheckReport("doob", lhs, rhs, p_prime, EXPLICIT, PASS if ok else FAIL,
                       p=p, q=q, tolerance=widen,
                       details={"running_max": lhs, "terminal": terminal, "ci_half": ci,
                                "terminal_ci_half": terminal_ci, "n_samples": n_samples})
