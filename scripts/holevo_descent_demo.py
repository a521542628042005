#!/usr/bin/env python3
"""Minimize the general mixed-state bound on a seeded random family and
print the result: the certified interval [h, f], its gap and the trace of
the best f for either strategy (Holevo, or Nagaoka with --n 2).

  python3 scripts/holevo_descent_demo.py --dim 3 --n 2 --seed 1 --iters 2000
"""

from __future__ import annotations

import argparse

import numpy as np

from qmetro.logderiv import sld_analysis
from qmetro.random_instances import random_linear_family
from qmetro.states import evaluate
from qmetro.variational import MinimizeConfig, minimize_bound


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--iters", type=int, default=2000)
    ap.add_argument("--strategy", choices=("holevo", "nagaoka"), default="holevo")
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    family = random_linear_family(args.dim, args.n, rng)
    state = evaluate(family, np.zeros(args.n))
    slds, fisher, _ = sld_analysis(state)
    config = MinimizeConfig(strategy=args.strategy, w=np.eye(args.n), max_iters=args.iters)
    result = minimize_bound(state, slds, fisher, config)
    print(f"strategy        : {result.strategy}")
    print(f"start objective : {result.trace[0]:.10f}")
    print(f"[h, f]          : [{result.lower:.12f}, {result.value:.12f}]  (h certified)")
    print(f"gap f - h       : {result.gap:.3e}")
    print(f"iterations      : {result.iterations}, converged = {result.converged}")
    marks = [0, len(result.trace) // 4, len(result.trace) // 2, -1]
    print("trace           :", ", ".join(f"{result.trace[i]:.6f}" for i in marks))


if __name__ == "__main__":
    main()
