"""One checker per inequality, each returning a CheckReport.

Constants policy: constants stated by the source results are hard
assertions (provenance "explicit"); implicit comparison constants become
measured envelopes or, when the user configures a stand-in factor, hard
assertions with provenance "configured".  Degenerate 0/0 ratios report
pass with a note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lq import InvalidInputError, LqElement, batch_norm_q
from .prob import exact_moment, moment_ci, sign_matrix
from .report import (CONFIGURED, EXPLICIT, FAIL, MEASURED, PASS, REPORT_ONLY,
                     CheckReport)
from .seqnorms import (LqSequence, NormExpr, RegimeSpec, composite_norm,
                       norm_D, norm_S, regime_select)
from .sumopt import pow2_scale

REL_SLACK = 1e-12


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
    """Exact K_{q,q} for even integer q: (q! / (2^(q/2) (q/2)!))^(1/q)."""
    n = q // 2
    return (math.factorial(q) / (2 ** n * math.factorial(n))) ** (1.0 / q)


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
    """p / log(2p), the moment growth shape of the maximal-term bound."""
    return p / math.log(2.0 * p)


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


def rademacher_sum_moment(xs: list[LqElement], p: float, q: float) -> float:
    """Exact (E || sum_i r_i x_i ||_q^p)^(1/p) over all sign patterns."""
    n = len(xs)
    if n > 24:
        raise InvalidInputError("sign enumeration capped at n = 24")
    signs = sign_matrix(n)
    vals = np.stack([x.values for x in xs])
    sums = np.tensordot(signs, vals, axes=(1, 0))
    weights = xs[0].space.weights if xs[0].kind == "commutative" else None
    norms = batch_norm_q(sums, q, weights)
    return float((norms ** p).mean() ** (1.0 / p))


def square_function_sides(xs: list[LqElement], q: float) -> tuple[float, float]:
    """(column, row) square-function norms of deterministic elements."""
    seq = LqSequence.deterministic(xs)
    return norm_S(seq, q, "column"), norm_S(seq, q, "row")


def randomized_sum_moment(seq: LqSequence, p: float, q: float) -> float:
    """(E_r E || sum_i r_i f_i ||_q^p)^(1/p), exact in both layers."""
    n = seq.n_items
    signs = sign_matrix(n)
    sums = np.tensordot(signs, seq.values, axes=(1, 0))  # (2^n, atoms, *elem)
    weights = seq.elem_space.weights if seq.elem_space is not None else None
    norms = batch_norm_q(sums, q, weights)
    pw = (norms ** p) @ seq.space.probs
    return float(pw.mean() ** (1.0 / p))


def little_rosenthal_term(seq: LqSequence, p: float, q: float) -> float:
    """(E (sum_i ||f_i||_q^q)^(p/q))^(1/p)."""
    weights = seq.elem_space.weights if seq.elem_space is not None else None
    norms = batch_norm_q(seq.values, q, weights)       # (items, atoms)
    inner = (norms ** q).sum(axis=0)
    return float(((inner ** (p / q)) @ seq.space.probs) ** (1.0 / p))


def max_item_moment(seq: LqSequence, p: float, q: float) -> float:
    """(E max_i ||f_i||_q^p)^(1/p)."""
    weights = seq.elem_space.weights if seq.elem_space is not None else None
    norms = batch_norm_q(seq.values, q, weights)
    return float(((norms.max(axis=0) ** p) @ seq.space.probs) ** (1.0 / p))


def _require_mean_zero(seq: LqSequence, tol: float = 1e-9):
    m = np.tensordot(seq.space.probs, seq.values, axes=(0, 1))
    scale = max(float(np.abs(seq.values).max()), 1e-300)
    if float(np.abs(m).max()) > tol * scale:
        raise InvalidInputError("sequence items must be mean-zero")


# -- checks ---------------------------------------------------------------------


def check_khintchine(xs: list[LqElement], p: float, q: float, *,
                     tolerance: float = REL_SLACK, seed: int | None = None) -> CheckReport:
    """Rademacher sums against the square functions, exact sign enumeration.

    q >= 2: second-moment lower bound at constant exactly 1, p-th-moment upper
    bound at K_{p,q} = khintchine_upper(p, q).  q < 2: constant-1 upper bound
    at the second moment against the decomposition infimum (here, its
    optimizer upper bound); the reverse direction is a recorded ratio.
    """
    lhs_p = rademacher_sum_moment(xs, p, q)
    lhs_2 = rademacher_sum_moment(xs, 2.0, q)
    col, row = square_function_sides(xs, q)
    sq_max = max(col, row)
    scale = max(lhs_p, sq_max, 1e-300)
    details = {"moment_p": lhs_p, "moment_2": lhs_2, "column": col, "row": row}
    if q >= 2:
        K = khintchine_upper(p, q)
        ok_lower = lhs_2 >= sq_max - tolerance * scale
        ok_upper = lhs_p <= K * sq_max + tolerance * scale
        details["lower_margin"] = lhs_2 - sq_max
        status = PASS if (ok_lower and ok_upper) else FAIL
        return CheckReport("khintchine", lhs_p, sq_max, K, EXPLICIT, status,
                           p=p, q=q, tolerance=tolerance, seed=seed, details=details)
    if xs[0].kind == "commutative":
        inf_value = col
    else:
        seq = LqSequence.deterministic(xs)
        tree = NormExpr("sum", None, (NormExpr("atom", "S_c"), NormExpr("atom", "S_r")))
        spec = RegimeSpec(0, 2.0, q, "noncommutative", tree)
        inf_value = composite_norm(seq, spec, 1e-5, seed=seed or 0).value
    details["decomposition_infimum_upper"] = inf_value
    lhs_q = rademacher_sum_moment(xs, q, q)
    details["reverse_ratio"] = inf_value / lhs_q if lhs_q > 0 else 0.0
    ok_upper = lhs_2 <= inf_value + tolerance * scale
    return CheckReport("khintchine", lhs_2, inf_value, 1.0, EXPLICIT,
                       PASS if ok_upper else FAIL, p=p, q=q,
                       tolerance=tolerance, seed=seed, details=details)


def check_symmetrization(seq: LqSequence, p: float, q: float, *,
                         tolerance: float = REL_SLACK, seed: int | None = None) -> CheckReport:
    """Randomized vs plain sum moments, both constants (1/2 and 2) exact."""
    _require_mean_zero(seq)
    plain = exact_moment(seq.sum_variable(), p, q)
    rand = randomized_sum_moment(seq, p, q)
    scale = max(plain, rand, 1e-300)
    ok = (rand <= 2.0 * plain + tolerance * scale) and (rand >= 0.5 * plain - tolerance * scale)
    return CheckReport("symmetrization", rand, plain, 2.0, EXPLICIT,
                       PASS if ok else FAIL, p=p, q=q, tolerance=tolerance, seed=seed,
                       details={"plain": plain, "randomized": rand,
                                "ratio": rand / plain if plain > 0 else math.nan})


def check_kahane(xs: list[LqElement], p: float, q: float, *, norm_exp: float = 2.0,
                 tolerance: float = REL_SLACK, seed: int | None = None) -> CheckReport:
    """Moment comparison of Rademacher sums: p-th vs q-th moment of the same
    Banach norm (exponent ``norm_exp``)."""
    m_p = rademacher_sum_moment(xs, p, norm_exp)
    m_q = rademacher_sum_moment(xs, q, norm_exp)
    if q <= 1:
        return CheckReport("kahane", m_p, m_q, math.nan, MEASURED, REPORT_ONLY,
                           p=p, q=q, seed=seed,
                           details={"ratio": m_p / m_q if m_q > 0 else math.nan})
    bound = kahane_kappa(p, q)
    ok = m_p <= bound * m_q + tolerance * max(m_p, m_q, 1e-300)
    return CheckReport("kahane", m_p, m_q, bound, EXPLICIT, PASS if ok else FAIL,
                       p=p, q=q, tolerance=tolerance, seed=seed,
                       details={"ratio": m_p / m_q if m_q > 0 else math.nan})


def check_rosenthal_scalar(seq: LqSequence, p: float, *,
                           table: ConstantTable = DEFAULT_TABLE,
                           tolerance: float = REL_SLACK, seed: int | None = None) -> CheckReport:
    """Scalar sums: max{(sum E|xi|^p)^(1/p), (sum E|xi|^2)^(1/2)} <= 2 * moment,
    and the p/log p upper direction (configured constant, else report-only)."""
    if p < 2:
        raise InvalidInputError("the scalar two-sided bound needs p >= 2")
    _require_mean_zero(seq)
    moment = exact_moment(seq.sum_variable(), p, 2.0)
    term_p = norm_D(seq, p, 2.0)
    term_2 = norm_D(seq, 2.0, 2.0)
    rhs_max = max(term_p, term_2)
    scale = max(moment, rhs_max, 1e-300)
    ok_lower = rhs_max <= 2.0 * moment + tolerance * scale
    details = {"moment": moment, "term_p": term_p, "term_2": term_2,
               "upper_shape": p / math.log(max(p, 1.0 + 1e-9))}
    status = PASS if ok_lower else FAIL
    if table.rosenthal_factor is not None:
        c = table.rosenthal_factor * details["upper_shape"]
        ok_upper = moment <= c * rhs_max + tolerance * scale
        status = PASS if (ok_lower and ok_upper) else FAIL
        details["upper_constant"] = c
    return CheckReport("rosenthal_scalar", rhs_max, moment, 2.0, EXPLICIT, status,
                       p=p, q=2.0, tolerance=tolerance, seed=seed, details=details)


def check_rosenthal_positive(seq: LqSequence, p: float, *,
                             seed: int | None = None) -> CheckReport:
    """Positive scalar sums: measured ratio against
    max{(sum E f^p)^(1/p), sum E f}; the constant is implicit."""
    vals = seq.values
    if float(np.abs(vals.imag).max()) > 0 or float(vals.real.min()) < 0:
        raise InvalidInputError("items must be nonnegative")
    total = vals.real.sum(axis=0)[:, 0]
    moment = float(((total ** p) @ seq.space.probs) ** (1.0 / p))
    term_p = norm_D(seq, p, 2.0)
    term_1 = float((vals.real.sum(axis=0)[:, 0] @ seq.space.probs))
    rhs = max(term_p, term_1)
    ratio = moment / rhs if rhs > 0 else (0.0 if moment == 0 else math.inf)
    return CheckReport("rosenthal_positive", moment, rhs, math.nan, MEASURED,
                       REPORT_ONLY, p=p, q=1.0, seed=seed,
                       details={"ratio": ratio, "term_p": term_p, "term_sum": term_1})


def check_hoffmann_jorgensen(seq: LqSequence, p: float, q: float, *,
                             table: ConstantTable = DEFAULT_TABLE,
                             seed: int | None = None) -> CheckReport:
    """Moment vs first moment plus maximal term, scaled by p/log(2p)."""
    _require_mean_zero(seq)
    lhs = exact_moment(seq.sum_variable(), p, q)
    first = exact_moment(seq.sum_variable(), 1.0, q)
    max_term = max_item_moment(seq, p, q)
    denom = hj_shape(p) * (first + max_term)
    if lhs == 0 and denom == 0:
        return CheckReport("hoffmann_jorgensen", 0.0, 0.0, math.nan, MEASURED, PASS,
                           p=p, q=q, seed=seed, details={"note": "degenerate 0/0"})
    ratio = lhs / denom if denom > 0 else math.inf
    details = {"ratio": ratio, "first_moment": first, "max_term": max_term,
               "shape": hj_shape(p)}
    if table.hj_factor is not None:
        ok = lhs <= table.hj_factor * denom
        return CheckReport("hoffmann_jorgensen", lhs, denom, table.hj_factor,
                           CONFIGURED, PASS if ok else FAIL, p=p, q=q, seed=seed,
                           details=details)
    return CheckReport("hoffmann_jorgensen", lhs, denom, math.nan, MEASURED,
                       REPORT_ONLY, p=p, q=q, seed=seed, details=details)


def check_pq_ge2_equivalence(seq: LqSequence, p: float, q: float, *,
                             tolerance: float = 1e-9,
                             seed: int | None = None) -> CheckReport:
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
    scale = max(moment, rhs_upper, 1e-300)
    ok_upper = moment <= upper_c * rhs_upper + tolerance * scale
    ok_lower = moment >= 0.5 * rhs_lower - tolerance * scale
    details = {"moment": moment, "s_column": s_col, "s_row": s_row,
               "little_rosenthal": little, "upper_constant": upper_c,
               "inner_constant": inner_c,
               "upper_slack": upper_c * rhs_upper - moment,
               "lower_slack": moment - 0.5 * rhs_lower}
    return CheckReport("pq_ge2", moment, rhs_upper, upper_c, EXPLICIT,
                       PASS if (ok_upper and ok_lower) else FAIL,
                       p=p, q=q, tolerance=tolerance, seed=seed, details=details)


def check_rosenthal_lq(seq: LqSequence, p: float, q: float, *, tol: float = 1e-4,
                       tolerance: float = 1e-9, seed: int = 0,
                       restarts: int = 4, max_iter: int = 1500) -> CheckReport:
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
    comp = composite_norm(seq, spec, tol, restarts=restarts, max_iter=max_iter, seed=seed)
    rhs = comp.value
    ratio = moment / rhs if rhs > 0 else (0.0 if moment == 0 else math.inf)
    details = {"ratio": ratio, "case_id": spec.case_id, "node_values": comp.node_values}
    hard: list[bool] = []
    s_col, s_row = norm_S(seq, q, "column"), norm_S(seq, q, "row")
    slack = tolerance * max(moment, rhs, s_col, s_row, 1e-300)
    if p >= 2 and q >= 2:
        sub = check_pq_ge2_equivalence(seq, p, q, tolerance=tolerance)
        details["explicit_two_sided"] = sub.status
        hard.append(sub.status == PASS)
        hard.append(max(s_col, s_row) <= 2.0 * moment + slack)
    elif p <= 2 and q <= 2:
        hard.append(moment <= 2.0 * min(s_col, s_row) + slack)
        if mode == "commutative":
            inf_up = s_col
        else:
            tree = NormExpr("sum", None, (NormExpr("atom", "S_c"), NormExpr("atom", "S_r")))
            inf_up = composite_norm(seq, RegimeSpec(0, p, q, mode, tree), tol,
                                    restarts=restarts, max_iter=max_iter, seed=seed).value
        hard.append(moment <= 4.0 * inf_up + slack)
        details["square_decomposition_upper"] = inf_up
    if hard:
        status = PASS if all(hard) else FAIL
        provenance = EXPLICIT
    else:
        status = REPORT_ONLY
        provenance = MEASURED
    return CheckReport("rosenthal_lq", moment, rhs, math.nan, provenance, status,
                       p=p, q=q, case_id=str(spec.case_id), tolerance=tolerance,
                       seed=seed, details=details)


def check_type_cotype(xs: list[LqElement], q: float, *, seed: int | None = None) -> CheckReport:
    """Type-min(q,2) and cotype-max(q,2) comparisons, measured envelopes only."""
    s_type = min(q, 2.0)
    s_cotype = max(q, 2.0)
    m2 = rademacher_sum_moment(xs, 2.0, q)
    seq = LqSequence.deterministic(xs)
    ell_type, ell_cotype = norm_D(seq, s_type, q), norm_D(seq, s_cotype, q)
    type_ratio = m2 / ell_type if ell_type > 0 else 0.0
    cotype_ratio = ell_cotype / m2 if m2 > 0 else 0.0
    return CheckReport("type_cotype", m2, ell_type, math.nan, MEASURED, REPORT_ONLY,
                       p=2.0, q=q, seed=seed,
                       details={"type_ratio": type_ratio, "cotype_ratio": cotype_ratio,
                                "type_s": s_type, "cotype_s": s_cotype,
                                "ell_cotype": ell_cotype})


# -- integral checks -------------------------------------------------------------


def check_decoupling(F, p: float, q: float, *, t: float | None = None, B=None,
                     table: ConstantTable = DEFAULT_TABLE, eps: float = 1e-10,
                     budget: int | None = None, tolerance: float = 1e-8,
                     seed: int | None = None) -> CheckReport:
    """Coupled vs decoupled integral moments.

    Deterministic integrands have identical laws on both sides, so the ratio
    is asserted to be 1 within the truncation tolerance.  Adapted integrands
    are a recorded ratio unless a stand-in martingale-transform constant is
    configured.
    """
    from .integrator import build_exact_model, integrate_exact

    kw = {} if budget is None else {"budget": budget}
    model = build_exact_model(F, eps, decoupled=True, **kw)
    if t is None:
        t = float(F.grid.time_points[-1])
    lhs = exact_moment(integrate_exact(model, t, B), p, q)
    rhs = exact_moment(integrate_exact(model, t, B, use_copy=True), p, q)
    ratio = lhs / rhs if rhs > 0 else (1.0 if lhs == 0 else math.inf)
    details = {"ratio": ratio, "truncation_tail": model.truncation_tail,
               "deterministic": F.is_deterministic}
    if F.is_deterministic:
        ok = abs(ratio - 1.0) <= tolerance or (lhs == 0 and rhs == 0)
        return CheckReport("decoupling", lhs, rhs, 1.0, EXPLICIT,
                           PASS if ok else FAIL, p=p, q=q, tolerance=tolerance,
                           seed=seed, details=details)
    if table.umd_constant is not None:
        ok = lhs <= table.umd_constant * rhs + tolerance * max(lhs, rhs, 1e-300)
        return CheckReport("decoupling", lhs, rhs, table.umd_constant, CONFIGURED,
                           PASS if ok else FAIL, p=p, q=q, tolerance=tolerance,
                           seed=seed, details=details)
    return CheckReport("decoupling", lhs, rhs, math.nan, MEASURED, REPORT_ONLY,
                       p=p, q=q, seed=seed, details=details)


def check_ito_isomorphism(family: list, p: float, q: float, *,
                          table: ConstantTable = DEFAULT_TABLE, B=None,
                          eps: float = 1e-10, exact_budget: int = 100_000,
                          n_samples: int = 10_000, seed: int = 0,
                          tol: float = 1e-4, restarts: int = 4,
                          max_iter: int = 1500) -> CheckReport:
    """Stability of R(F) = terminal moment / regime process norm over a family.

    Exact enumeration where the truncated product space fits the budget,
    Monte Carlo with 3-sigma CI widening elsewhere.  Passes when the widened
    ratio band max R / min R stays within the configured band, and when
    R(32 F) matches R(F) to a relative 1e-12 for the first member.
    """
    from .integrator import build_exact_model, integrate_exact, process_norm, sample_paths
    from .prob import BudgetExceededError

    members = []
    r_lo, r_hi = [], []
    for idx, F in enumerate(family):
        scale = pow2_scale(F.max_abs()) if F.is_deterministic else 1.0
        Fn = F.scaled(1.0 / scale)
        t = float(Fn.grid.time_points[-1])
        model = None
        try:
            model = build_exact_model(Fn, eps, exact_budget)
            moment = exact_moment(integrate_exact(model, t, B), p, q)
            ci = 0.0
            mc = False
        except BudgetExceededError:
            norms = sample_paths(Fn, t, B, q, n_samples, seed, stream=idx)
            moment, ci = moment_ci(norms[:, -1], p)
            ci *= 3.0
            mc = True
            model = None
        value = process_norm(Fn, t, B, p, q, "I_regime", tol, model=model,
                             eps=eps, restarts=restarts, max_iter=max_iter, seed=seed)
        R = moment / value if value > 0 else math.inf
        members.append({"moment": moment, "norm": value, "R": R,
                        "ci_half": ci, "monte_carlo": mc})
        r_lo.append((moment - ci) / value if value > 0 else math.inf)
        r_hi.append((moment + ci) / value if value > 0 else math.inf)
    band = table.ito_band
    ratio_band = max(r_hi) / min(r_lo) if 0 < min(r_lo) < math.inf else math.inf
    # scale invariance of the first member: R(32 F_0) on its own table, left to
    # process_norm's own normalisation; its grid fits the budget as member 0's
    # did.  A zero F_0 (R = inf) is skipped; a zero family's band is inf
    F0 = family[0]
    inv_gap = 0.0
    if F0.is_deterministic and not members[0]["monte_carlo"] and members[0]["norm"] > 0:
        F32 = F0.scaled(32.0)
        tx = float(F32.grid.time_points[-1])
        m = build_exact_model(F32, eps, exact_budget)
        mom = exact_moment(integrate_exact(m, tx, B), p, q)
        val = process_norm(F32, tx, B, p, q, "I_regime", tol, model=m,
                           eps=eps, restarts=restarts, max_iter=max_iter, seed=seed)
        r1, r2 = members[0]["R"], mom / val
        inv_gap = abs(r1 - r2) / max(abs(r1), 1e-300)
    ok = ratio_band <= band and inv_gap <= 1e-12
    spec = regime_select(p, q, "commutative" if family[0].elem_space is not None
                         else "noncommutative")
    return CheckReport("ito_isomorphism", max(r_hi), min(r_lo), band, CONFIGURED,
                       PASS if ok else FAIL, p=p, q=q, case_id=str(spec.case_id),
                       tolerance=tol, seed=seed,
                       details={"ratio_band": ratio_band, "members": members,
                                "scale_invariance_gap": inv_gap})


def check_doob(F, p: float, q: float, *, t: float | None = None, B=None,
               n_samples: int = 4000, seed: int = 0) -> CheckReport:
    """Running-max moment dominated by p' times the terminal moment.

    Statistical: both sides are estimated from the same paths and the
    threshold is widened by 3 CI half-widths.
    """
    from .integrator import running_max_moment
    from .lq import conjugate_exponent

    if t is None:
        t = float(F.grid.time_points[-1])
    res = running_max_moment(F, t, B, p, q, n_samples, seed)
    p_prime = conjugate_exponent(p)
    lhs = res["estimate"]
    rhs = p_prime * res["terminal"]
    widen = 3.0 * (res["ci_half"] + p_prime * res["terminal_ci_half"])
    ok = lhs <= rhs + widen
    return CheckReport("doob", lhs, rhs, p_prime, EXPLICIT, PASS if ok else FAIL,
                       p=p, q=q, tolerance=widen, seed=seed,
                       details={"running_max": res["estimate"], "terminal": res["terminal"],
                                "ci_half": res["ci_half"],
                                "terminal_ci_half": res["terminal_ci_half"],
                                "n_samples": n_samples})
