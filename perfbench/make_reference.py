"""Write perfbench/reference.json: for every workload at the default seed,
each row's check id, p, q, computation path and status, and the CSV sha256.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter rows, and say so in CHANGES.md;
the benchmark counts every row that differs from this file as failed.
"""

import json
import os

import run
import workloads


def main() -> None:
    os.environ.pop("ITOLAB_WORKERS", None)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    out = {}
    for name, build in workloads.WORKLOADS.items():
        csv_path = os.path.join(run.OUT_DIR, f"reference-{name}.csv")
        p = run.one_pass(build(workloads.DEFAULT_SEED), csv_path)
        out[name] = {"seed": workloads.DEFAULT_SEED, "csv_sha256": p["digest"],
                     "rows": p["records"]}
        print(name, len(p["records"]), "rows", p["digest"])
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
