#!/usr/bin/env python3
"""Intensity sweep of the integral-moment to regime-norm ratio.

For each regime's (p, q) sample point, sweeps single-cell intensities and
prints R(F) together with the regime norm's component values, making the
crossover between square-function-dominated and terminal-sum-dominated
intensities visible.
"""

import argparse

import numpy as np

from itolab.integrator import build_exact_model, integrate_exact, process_norm
from itolab.instances import single_cell_process
from itolab.lq import point_space
from itolab.prob import exact_moment
from itolab.seqnorms import regime_select

REGIME_POINTS = [(3.0, 2.5), (2.5, 3.0), (1.5, 3.0), (3.0, 1.5), (1.8, 1.5), (1.5, 1.8)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lambdas", type=float, nargs="+",
                    default=[0.01, 0.05, 0.2, 0.5, 1.0])
    ap.add_argument("--value", type=float, default=1.0)
    args = ap.parse_args()
    es = point_space()
    for p, q in REGIME_POINTS:
        spec = regime_select(p, q)
        print(f"\n(p, q) = ({p}, {q})  case {spec.case_id}  {spec.tree.label()}")
        print(f"{'lam':>8} {'moment':>12} {'norm':>12} {'R':>8}")
        for lam in args.lambdas:
            F = single_cell_process(lam, np.array([args.value]), es)
            model = build_exact_model(F, eps=1e-12)
            mom = exact_moment(integrate_exact(model), p, q)
            val = process_norm(F, p, q, model=model)
            print(f"{lam:8.3f} {mom:12.6f} {val:12.6f} {mom / val:8.3f}")


if __name__ == "__main__":
    main()
