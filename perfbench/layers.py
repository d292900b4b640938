"""What the traced pass wraps in each itolab module, and the per-layer
metrics it reads back.

Counts are computed from argument shapes and returned objects, never from
private helpers, so a later change to how a layer does its work cannot
change what a count means.
"""

from __future__ import annotations

import math

import numpy as np

from tracer import CALLS, S, SELF_S, WORK, Target, Tracer

NORM_CLASSES = ("SeqS", "SeqD", "ProcS", "ProcDqq", "ProcDpq")
CASES = (0, 2, 3, 4, 5, 6)
CHECKERS = ("check_khintchine", "check_symmetrization", "check_kahane",
            "check_rosenthal_scalar", "check_rosenthal_positive",
            "check_hoffmann_jorgensen", "check_pq_ge2_equivalence", "check_rosenthal_lq",
            "check_type_cotype", "check_decoupling", "check_ito_isomorphism", "check_doob")
RANDMAT = ("bound_matrix_sum", "bound_entry_matrix", "bound_latala", "seginer_ensemble")
INSTANCES = ("element_space_of", "random_element", "random_mean_zero_variable",
             "random_independent_sequence", "random_positive_sequence",
             "bernoulli_sequence", "single_cell_process", "multi_cell_process",
             "two_stage_adapted_process")
CASE_OWNERS = ("seqnorms.composite_norm", "integrator.process_norm")


# -- hooks -----------------------------------------------------------------------


def _case_from_spec(tr, frame, a):
    frame.attrs["case"] = a["spec"].case_id


def _case_to_process_norm(tr, frame, args, spec):
    # process_norm picks its regime itself; tag it from that call's result
    caller = tr.stack[-1] if tr.stack else None
    if caller is not None and caller.name == "integrator.process_norm":
        caller.attrs["case"] = spec.case_id


def _minimize_result(tr, frame, a, res):
    owner = tr.enclosing(CASE_OWNERS)
    frame.attrs.update(iterations=res.iterations, converged=bool(res.converged),
                       case=owner.attrs.get("case") if owner else None)


def _atoms_of_model(tr, frame, a, model):
    frame.attrs["atoms"] = model.space.n_atoms


def _atoms_of_space(tr, frame, a, space):
    frame.attrs["atoms"] = space.n_atoms


def _paths(tr, frame, a):
    frame.attrs["paths"] = int(a["n_samples"])


def _randmat_work(fn_name: str):
    """Path and work of one public randmat call, from the ensemble's shape.

    Exact: every entry configuration, ``n`` summands plus their sum normed per
    configuration.  Sampled: ``n_samples`` draws, normed the same way.
    bound_latala evaluates two moments (first and p-th), the others one."""
    moments = 2 if fn_name == "bound_latala" else 1

    def on_return(tr, frame, a, report):
        if fn_name == "seginer_ensemble":   # a Rademacher sign per entry of ``a``
            ens = None
            n, mc = 1, bool(report.details["monte_carlo"])
        else:
            ens = a["ens"]
            n = ens.n
            mc = report.details.get("monte_carlo", not ens.exact_feasible())
        if mc:
            draws = moments * int(a["n_samples"])
            frame.attrs.update(path="sampled", samples=draws, matrices=draws * (n + 1))
        else:
            configs = moments * (2 ** int(np.size(a["a"])) if ens is None
                                 else len(ens.law.atoms) ** ens.entry_count())
            frame.attrs.update(path="exact", configs=configs, matrices=configs * (n + 1))

    return on_return


def _elements(args) -> int:
    values, weights = args[0], args[2] if len(args) > 2 else None
    shape = np.shape(values)
    return math.prod(shape[:-1] if weights is not None else shape[:-2])


def _matrices(args) -> int:
    return math.prod(np.shape(args[0])[:-2])


TARGETS = [
    Target("itolab.sumopt", "minimize_decomposition", on_return=_minimize_result),
    Target("itolab.sumopt", "MaxFunctional.value_grad", leaf=True),
    *(Target("itolab.normfuncs", f"{c}.value_grad", leaf=True) for c in NORM_CLASSES),
    Target("itolab.seqnorms", "composite_norm", on_call=_case_from_spec),
    Target("itolab.seqnorms", "regime_select", leaf=True, on_return=_case_to_process_norm),
    Target("itolab.integrator", "build_exact_model", on_return=_atoms_of_model),
    Target("itolab.integrator", "integrate_exact"),
    Target("itolab.integrator", "process_norm"),
    Target("itolab.integrator", "sample_paths", on_call=_paths),
    Target("itolab.integrator", "running_max_moment"),
    Target("itolab.prob", "product_space", on_return=_atoms_of_space),
    Target("itolab.prob", "exact_moment"),
    Target("itolab.prob", "centered_poisson_moment", leaf=True),
    Target("itolab.prob", "philox", leaf=True),
    Target("itolab.lq", "batch_norm_q", leaf=True, work=_elements),
    Target("itolab.lq", "singular_values", leaf=True, work=_matrices),
    *(Target("itolab.randmat", f, on_return=_randmat_work(f)) for f in RANDMAT),
    *(Target("itolab.checks", f) for f in CHECKERS),
    Target("itolab.poisson", "verify_poisson_moment_bounds"),
    Target("itolab.checks", "rademacher_sum_moment"),
    Target("itolab.checks", "randomized_sum_moment"),
    Target("itolab.cli", "run_jobs"),
    Target("itolab.cli", "emit"),
    Target("itolab.config", "parse_config"),
    Target("itolab.config", "process_from_table"),
    *(Target("itolab.instances", f, leaf=True, group="instances") for f in INSTANCES),
]

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("sumopt.minimize_decomposition.calls", "count", "lower"),
    ("sumopt.minimize_decomposition.s", "s", "lower"),
    ("sumopt.minimize_decomposition.self_s", "s", "lower"),
    ("sumopt.minimize_decomposition.iterations", "count", "lower"),
    ("sumopt.minimize_decomposition.converged_ratio", "ratio", "higher"),
    *((f"sumopt.minimize_decomposition.case{c}.{k}", u, "lower")
      for c in CASES for k, u in (("s", "s"), ("iterations", "count"))),
    ("sumopt.MaxFunctional.value_grad.self_s", "s", "lower"),
    *((f"normfuncs.{c}.value_grad.{k}", u, "lower")
      for c in NORM_CLASSES for k, u in (("calls", "count"), ("self_s", "s"))),
    ("seqnorms.composite_norm.calls", "count", "lower"),
    ("seqnorms.composite_norm.s", "s", "lower"),
    ("seqnorms.composite_norm.self_s", "s", "lower"),
    ("integrator.build_exact_model.calls", "count", "lower"),
    ("integrator.build_exact_model.s", "s", "lower"),
    ("integrator.build_exact_model.atoms", "count", "lower"),
    ("integrator.integrate_exact.s", "s", "lower"),
    ("integrator.process_norm.calls", "count", "lower"),
    ("integrator.process_norm.s", "s", "lower"),
    ("integrator.process_norm.self_s", "s", "lower"),
    ("integrator.sample_paths.s", "s", "lower"),
    ("integrator.sample_paths.paths", "count", "lower"),
    ("integrator.running_max_moment.s", "s", "lower"),
    ("prob.product_space.calls", "count", "lower"),
    ("prob.product_space.s", "s", "lower"),
    ("prob.product_space.atoms", "count", "lower"),
    ("prob.exact_moment.calls", "count", "lower"),
    ("prob.exact_moment.s", "s", "lower"),
    ("prob.budget_exceeded", "count", "lower"),
    ("prob.centered_poisson_moment.s", "s", "lower"),
    ("prob.philox.calls", "count", "lower"),
    ("lq.batch_norm_q.calls", "count", "lower"),
    ("lq.batch_norm_q.s", "s", "lower"),
    ("lq.batch_norm_q.elements", "count", "lower"),
    ("lq.singular_values.calls", "count", "lower"),
    ("lq.singular_values.s", "s", "lower"),
    ("lq.singular_values.matrices", "count", "lower"),
    *((f"randmat.{f}.s", "s", "lower") for f in RANDMAT),
    ("randmat.exact.calls", "count", "lower"),
    ("randmat.exact.s", "s", "lower"),
    ("randmat.exact.configs", "count", "lower"),
    ("randmat.exact.matrices", "count", "lower"),
    ("randmat.sampled.calls", "count", "lower"),
    ("randmat.sampled.s", "s", "lower"),
    ("randmat.sampled.samples", "count", "lower"),
    ("randmat.sampled.matrices", "count", "lower"),
    ("randmat.exact_share", "ratio", "higher"),
    *((f"checks.{f}.self_s", "s", "lower") for f in CHECKERS),
    ("poisson.verify_poisson_moment_bounds.self_s", "s", "lower"),
    ("checks.rademacher_sum_moment.s", "s", "lower"),
    ("checks.randomized_sum_moment.s", "s", "lower"),
    ("cli.run_jobs.self_s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("config.parse_config.s", "s", "lower"),
    ("config.process_from_table.s", "s", "lower"),
    ("instances.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Counts that must repeat exactly between two runs on one seed.
COUNT_METRICS = [n for n, u, _ in PER_LAYER if u == "count"]


def _sum_attr(spans, key) -> int:
    return sum(s["attrs"].get(key, 0) for s in spans)


def _inclusive(spans) -> float:
    return math.fsum(s["end"] - s["start"] for s in spans if not s["nested"])


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass except the two that need the
    untraced passes as well (``cli.cpu_s``, ``trace.overhead_s``)."""
    m: dict[str, float] = {}

    md = tr.spans_of("sumopt.minimize_decomposition")
    m["sumopt.minimize_decomposition.calls"] = len(md)
    m["sumopt.minimize_decomposition.s"] = tr.span_total("sumopt.minimize_decomposition")
    m["sumopt.minimize_decomposition.self_s"] = tr.span_total(
        "sumopt.minimize_decomposition", "self_s")
    m["sumopt.minimize_decomposition.iterations"] = _sum_attr(md, "iterations")
    m["sumopt.minimize_decomposition.converged_ratio"] = (
        sum(s["attrs"].get("converged", False) for s in md) / len(md) if md else 0.0)
    for c in CASES:
        tagged = [s for s in md if s["attrs"].get("case") == c]
        m[f"sumopt.minimize_decomposition.case{c}.s"] = _inclusive(tagged)
        m[f"sumopt.minimize_decomposition.case{c}.iterations"] = _sum_attr(tagged, "iterations")
    m["sumopt.MaxFunctional.value_grad.self_s"] = tr.leaf_total(
        "sumopt.MaxFunctional.value_grad", SELF_S)
    for c in NORM_CLASSES:
        m[f"normfuncs.{c}.value_grad.calls"] = tr.leaf_total(f"normfuncs.{c}.value_grad", CALLS)
        m[f"normfuncs.{c}.value_grad.self_s"] = tr.leaf_total(f"normfuncs.{c}.value_grad", SELF_S)

    for name in ("seqnorms.composite_norm", "integrator.process_norm"):
        m[f"{name}.calls"] = len(tr.spans_of(name))
        m[f"{name}.s"] = tr.span_total(name)
        m[f"{name}.self_s"] = tr.span_total(name, "self_s")
    models = tr.spans_of("integrator.build_exact_model")
    m["integrator.build_exact_model.calls"] = len(models)
    m["integrator.build_exact_model.s"] = tr.span_total("integrator.build_exact_model")
    m["integrator.build_exact_model.atoms"] = _sum_attr(models, "atoms")
    m["integrator.integrate_exact.s"] = tr.span_total("integrator.integrate_exact")
    m["integrator.sample_paths.s"] = tr.span_total("integrator.sample_paths")
    m["integrator.sample_paths.paths"] = _sum_attr(tr.spans_of("integrator.sample_paths"),
                                                   "paths")
    m["integrator.running_max_moment.s"] = tr.span_total("integrator.running_max_moment")

    spaces = tr.spans_of("prob.product_space")
    m["prob.product_space.calls"] = len(spaces)
    m["prob.product_space.s"] = tr.span_total("prob.product_space")
    m["prob.product_space.atoms"] = _sum_attr(spaces, "atoms")
    m["prob.exact_moment.calls"] = len(tr.spans_of("prob.exact_moment"))
    m["prob.exact_moment.s"] = tr.span_total("prob.exact_moment")
    m["prob.budget_exceeded"] = sum(s["attrs"].get("error") == "BudgetExceededError"
                                    for s in spaces)
    m["prob.centered_poisson_moment.s"] = tr.leaf_total("prob.centered_poisson_moment", S)
    m["prob.philox.calls"] = tr.leaf_total("prob.philox", CALLS)

    for name, work in (("lq.batch_norm_q", "elements"), ("lq.singular_values", "matrices")):
        m[f"{name}.calls"] = tr.leaf_total(name, CALLS)
        m[f"{name}.s"] = tr.leaf_total(name, S)
        m[f"{name}.{work}"] = tr.leaf_total(name, WORK)

    calls = []
    for f in RANDMAT:
        m[f"randmat.{f}.s"] = tr.span_total(f"randmat.{f}")
        calls += tr.spans_of(f"randmat.{f}")
    for path, work in (("exact", "configs"), ("sampled", "samples")):
        on_path = [s for s in calls if s["attrs"].get("path") == path]
        m[f"randmat.{path}.calls"] = len(on_path)
        m[f"randmat.{path}.s"] = _inclusive(on_path)
        m[f"randmat.{path}.{work}"] = _sum_attr(on_path, work)
        m[f"randmat.{path}.matrices"] = _sum_attr(on_path, "matrices")
    m["randmat.exact_share"] = m["randmat.exact.calls"] / len(calls) if calls else 0.0

    for f in CHECKERS:
        m[f"checks.{f}.self_s"] = tr.span_total(f"checks.{f}", "self_s")
    m["poisson.verify_poisson_moment_bounds.self_s"] = tr.span_total(
        "poisson.verify_poisson_moment_bounds", "self_s")
    for f in ("rademacher_sum_moment", "randomized_sum_moment"):
        m[f"checks.{f}.s"] = tr.span_total(f"checks.{f}")

    m["cli.run_jobs.self_s"] = tr.span_total("cli.run_jobs", "self_s")
    m["cli.emit.s"] = tr.span_total("cli.emit")
    m["config.parse_config.s"] = tr.span_total("config.parse_config")
    m["config.process_from_table.s"] = tr.span_total("config.process_from_table")
    m["instances.s"] = tr.group_total("instances")
    return m
