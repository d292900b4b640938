"""Self-tests of the benchmark: python3 -m pytest perfbench -q  (about a minute)."""

import hashlib
import json
import os

import pytest

import layers
import run
import workloads
from tracer import MissingTarget, Target, Tracer

from itolab import cli, lq


def traced_pass(workload: str, seed: int, tmp_path) -> dict:
    tracer = Tracer(layers.TARGETS)
    run.one_pass(workloads.WORKLOADS[workload](seed), str(tmp_path / "out.csv"), tracer)
    return layers.layer_metrics(tracer)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_and_layers_separate(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("ITOLAB_WORKERS", raising=False)
    first = traced_pass(workload, 7, tmp_path)
    second = traced_pass(workload, 7, tmp_path)
    assert {n: first[n] for n in layers.COUNT_METRICS} == \
           {n: second[n] for n in layers.COUNT_METRICS}
    optimizer = (first["sumopt.minimize_decomposition.calls"]
                 + sum(first[f"normfuncs.{c}.value_grad.calls"] for c in layers.NORM_CLASSES))
    randmat = first["randmat.exact.calls"] + first["randmat.sampled.calls"]
    if workload in ("enumerate", "sampled"):
        assert optimizer == 0
    else:
        assert optimizer > 0
    if workload == "sumnorm":
        assert randmat == 0
    else:
        assert randmat > 0
    if workload == "enumerate":
        assert first["randmat.sampled.calls"] == 0
    if workload == "sampled":
        assert first["randmat.exact.calls"] == 0


def test_suite_workload_is_the_cli_suite(tmp_path, monkeypatch):
    monkeypatch.delenv("ITOLAB_WORKERS", raising=False)
    out = tmp_path / "suite.csv"
    cli.main(["suite", "--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == run.load_reference("suite")["csv_sha256"]


def test_every_binding_is_wrapped_and_restored():
    import itolab

    original = lq.batch_norm_q
    holders = [m for m in (itolab.lq, itolab.normfuncs, itolab.checks, itolab.seqnorms,
                           itolab.prob) if getattr(m, "batch_norm_q", None) is original]
    assert len(holders) == 5
    with Tracer([Target("itolab.lq", "batch_norm_q", leaf=True)]):
        assert all(m.batch_norm_q is not original for m in holders)
        assert len({id(m.batch_norm_q) for m in holders}) == 1
    assert all(m.batch_norm_q is original for m in holders)


def test_missing_target_fails_loudly():
    original = lq.batch_norm_q
    tracer = Tracer([Target("itolab.lq", "batch_norm_q", leaf=True),
                     Target("itolab.lq", "no_such_function")])
    with pytest.raises(MissingTarget):
        tracer.install()
    assert lq.batch_norm_q is original
    with pytest.raises(MissingTarget):
        Tracer([Target("itolab.normfuncs", "SeqS.no_such_method", leaf=True)]).install()


def test_benchmark_json_lists_the_layer_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
           [tuple(m) for m in layers.PER_LAYER]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
