"""itolab benchmark: time to all verdicts of a battery, end to end and per layer.

    python3 perfbench/run.py --workload suite --seed 12345 --seconds 20 --trace 0

Runs the workload's battery through ``itolab.cli.run_jobs`` and
``itolab.cli.emit`` (CSV), pass after pass in this one process, until
``--seconds`` have gone by, and checks every row of every pass.

``--trace 0`` prints the end-to-end metrics: set-up time (median of fresh
processes), battery time (median pass, in nominal seconds: see speed.py),
verdicts per second and peak memory.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of ``layers.PER_LAYER`` (medians over traced passes), the traced
minus untraced battery time, and writes the last traced pass's spans to
``.perfbench_out/``.

The last stdout line is the result object; the line before it holds the
environment, sample counts, quartiles and the CSV digest.  The exit code is
1 when any row failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402
from speed import SpeedSampler, nominal  # noqa: E402


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


# -- correctness -------------------------------------------------------------------


def row_path(report) -> str:
    """How a row was computed, as far as the row itself says."""
    d = report.details or {}
    if "monte_carlo" in d:
        return "sampled" if d["monte_carlo"] else "exact"
    if "members" in d:
        return "sampled" if any(m["monte_carlo"] for m in d["members"]) else "exact"
    return "unflagged"


def row_record(report) -> list:
    return [report.check_id, report.p, report.q, row_path(report), report.status]


def failed_rows(records: list, reference: dict, default_seed: bool) -> int:
    """Rows that fail, take another path or land elsewhere than the reference
    row; at the default seed also rows whose status differs from it."""
    ref = reference["rows"]
    failed = abs(len(records) - len(ref))
    for got, want in zip(records, ref):
        failed += (got[4] == "fail" or got[:4] != want[:4]
                   or (default_seed and got[4] != want[4]))
    return failed


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


# -- measuring ---------------------------------------------------------------------


def setup_times(workload: str, seed: int, repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first job."""
    out = []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


def one_pass(raw: dict, csv_path: str, tracer=None) -> dict:
    """Parse the config, then time run_jobs plus the CSV emit."""
    from itolab import cli, config

    with tracer or contextlib.nullcontext():
        cfg = config.parse_config(raw)
        with SpeedSampler() as speed:
            c0, t0 = time.process_time(), time.perf_counter()
            reports = cli.run_jobs(cfg)
            cli.emit(reports, csv_path)
            t1, c1 = time.perf_counter(), time.process_time()
    with open(csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"battery_s": t1 - t0, "cpu_s": c1 - c0, "kernel_s": speed.kernel_time(),
            "digest": digest, "records": [row_record(r) for r in reports]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until ``seconds`` have gone by; with ``trace`` each untraced
    pass is followed by a traced one."""
    import layers
    from tracer import Tracer

    raw = workloads.WORKLOADS[workload](seed)
    reference = load_reference(workload)
    default_seed = seed == workloads.DEFAULT_SEED
    os.makedirs(OUT_DIR, exist_ok=True)
    csv_path = os.path.join(OUT_DIR, f"{workload}-{seed}.csv")
    plain, traced, layer_runs = [], [], []
    attempted = failed = 0
    digest = None
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    while True:
        for traced_pass in kinds:
            tracer = Tracer(layers.TARGETS) if traced_pass else None
            try:
                p = one_pass(raw, csv_path, tracer)
            except Exception:
                traceback.print_exc()
                n = len(reference["rows"])
                return {"attempted": attempted + n, "failed": failed + n, "plain": plain,
                        "traced": traced, "layers": layer_runs, "digest": digest}
            digest = digest or p["digest"]
            p["failed"] = (len(p["records"]) if p["digest"] != digest
                           else failed_rows(p["records"], reference, default_seed))
            attempted += max(len(p["records"]), len(reference["rows"]))
            failed += p["failed"]
            if traced_pass:
                traced.append(p)
                layer_runs.append(layers.layer_metrics(tracer))
            else:
                plain.append(p)
        if time.perf_counter() - start >= seconds:
            break
    if trace:
        with open(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    return {"attempted": attempted, "failed": failed, "plain": plain, "traced": traced,
            "layers": layer_runs, "digest": digest,
            "reference_digest_match": (digest == reference["csv_sha256"]
                                       if default_seed else None)}


# -- reporting ---------------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "itolab_workers_cleared": "ITOLAB_WORKERS" not in os.environ}


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    walls = [p["battery_s"] for p in res["plain"]]
    times = [nominal(p["battery_s"], p["kernel_s"]) for p in res["plain"]]
    battery = median(times)
    rows = len(res["plain"][0]["records"]) if res["plain"] else 0
    metrics = {
        "setup_s": {"value": median(setups), "unit": "s"},
        "battery_s": {"value": battery, "unit": "s"},
        "verdicts_per_s": {"value": rows / battery if battery > 0 else 0.0,
                           "unit": "rows/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    stats = {"samples": {"setup_s": len(setups), "battery_s": len(times),
                         "verdicts_per_s": len(times), "peak_rss_mb": 1},
             "rows": rows, "battery_s_all": times, "battery_s_quartiles": quartiles(times),
             "battery_wall_s": median(walls), "battery_wall_s_all": walls,
             "battery_wall_s_quartiles": quartiles(walls),
             "setup_s_all": setups,
             "kernel_s_all": [p["kernel_s"] for p in res["plain"]]}
    return metrics, stats


def per_layer(res: dict) -> tuple[dict, dict]:
    import layers

    units = {n: u for n, u, _ in layers.PER_LAYER}
    values = {n: median([run[n] for run in res["layers"]])
              for n in units if res["layers"] and n in res["layers"][0]}
    values["cli.cpu_s"] = median([p["cpu_s"] for p in res["plain"]])
    values["trace.overhead_s"] = (
        median([nominal(p["battery_s"], p["kernel_s"]) for p in res["traced"]])
        - median([nominal(p["battery_s"], p["kernel_s"]) for p in res["plain"]]))
    consistent = all(t["digest"] == res["digest"] and t["failed"] == u["failed"]
                     for t, u in zip(res["traced"], res["plain"]))
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units if n in values}
    stats = {"samples": {n: len(res["layers"]) for n in metrics},
             "trace_consistent": consistent}
    stats["samples"]["cli.cpu_s"] = len(res["plain"])
    return metrics, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("ITOLAB_WORKERS", None)
    try:
        import itolab
    except ImportError as exc:
        print(f"cannot import itolab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(itolab.__file__)) != os.path.join(SRC, "itolab"):
        print(f"itolab imported from {itolab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    setups = [] if args.trace else setup_times(args.workload, args.seed, SETUP_REPEATS)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics, stats = per_layer(res)
        correct = res["failed"] == 0 and stats["trace_consistent"]
    else:
        metrics, stats = end_to_end(res, setups)
        correct = res["failed"] == 0
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "repeats": len(res["plain"]) + len(res["traced"]),
            "failed_share": res["failed"] / max(res["attempted"], 1),
            "csv_sha256": res["digest"],
            "reference_digest_match": res.get("reference_digest_match"),
            "environment": environment(), **stats}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
