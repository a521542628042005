#!/usr/bin/env python3
"""Minimize the general mixed-state bound on a seeded random family and
print the result: the certified interval [h, f], its gap and the trace of
the best f for either strategy (Holevo, or Nagaoka with --n 2).

  python3 scripts/holevo_descent_demo.py --dim 3 --n 2 --seed 1 --iters 2000

With --scan K it instead runs the robustness scan over K seeds: for each
seed s the generator default_rng(1000 + s) draws random_linear_family
at d = 2..5 and n = 2..min(5, d^2 - 1), in that order, and every family
is solved with W = F_Q and W = I, Holevo always and Nagaoka at n = 2
(36 runs per seed).  It prints how many runs converged, did not converge
or raised, how many ended in the closed form, the total Newton steps and
the largest relative gap (f - h) / f among the runs that did not
converge (0 if every run did):

  python3 scripts/holevo_descent_demo.py --scan 20

A run ends in the closed form, with 0 Newton steps, where the
unbiasedness constraints leave one feasible X (n = d^2 - 1): h is then
affine and its maximum is read off the polar factor of the dual matrix.
Elsewhere the solver takes a Newton step on h alone wherever it lies
well inside ||M|| < 1, which closes an optimum inside the ball in a few
steps.  Once the ascent is central at ||M|| >= 1/2 it projects its point
onto the face ||M|| = 1 and takes Newton steps for max h on that face
while each raises the certified lower end, which closes an optimum on
the boundary in a few points; the projection and each such step count
as Newton steps.  Every exit keeps the certificate: every lower end is
an h at a point with ||M|| < 1.
"""

from __future__ import annotations

import argparse

import numpy as np

from qmetro.logderiv import sld_analysis
from qmetro.random_instances import random_linear_family
from qmetro.states import evaluate
from qmetro.variational import MinimizeConfig, minimize_bound

#: The scan's generator for seed s is default_rng(SCAN_SEED_BASE + s).
SCAN_SEED_BASE = 1000


def scan(seeds: int, max_iters: int) -> None:
    converged = not_converged = raised = closed = steps = 0
    worst_gap = 0.0
    for s in range(seeds):
        rng = np.random.default_rng(SCAN_SEED_BASE + s)
        for d in range(2, 6):
            for n in range(2, min(5, d * d - 1) + 1):
                state = evaluate(random_linear_family(d, n, rng), np.zeros(n))
                slds, fisher, _ = sld_analysis(state)
                for w_name, w in (("F_Q", fisher.f_q), ("I", np.eye(n))):
                    for strategy in ("holevo", "nagaoka") if n == 2 else ("holevo",):
                        config = MinimizeConfig(strategy=strategy, w=w, max_iters=max_iters)
                        try:
                            result = minimize_bound(state, slds, fisher, config)
                        except Exception as exc:  # counted and reported, the scan goes on
                            raised += 1
                            print(f"raised: s={s} d={d} n={n} W={w_name} {strategy}: {exc!r}")
                            continue
                        converged += result.converged
                        not_converged += not result.converged
                        closed += result.iterations == 0
                        steps += result.iterations
                        if not result.converged:
                            worst_gap = max(worst_gap, result.gap / result.value)
    print(f"runs            : {converged + not_converged + raised} over {seeds} seeds")
    print(f"converged       : {converged}")
    print(f"not converged   : {not_converged}")
    print(f"raised          : {raised}")
    print(f"closed form     : {closed}")
    print(f"Newton steps    : {steps}")
    print(f"largest gap (not converged): {worst_gap:.3e}")


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--iters", type=int, default=2000)
    ap.add_argument("--strategy", choices=("holevo", "nagaoka"), default="holevo")
    ap.add_argument("--scan", type=int, metavar="K", help="run the robustness scan over K seeds")
    args = ap.parse_args(argv)
    if args.scan is not None:
        scan(args.scan, args.iters)
        return

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
