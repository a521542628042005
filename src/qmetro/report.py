"""Assembly of composite bound reports for an evaluated state.

For a given state and list of copy counts this computes every requested
bound, flags the tightest upper bound per p (the bounds combine freely,
so the minimum is itself the operative bound), and carries enough
metadata to serialize deterministic CSV/JSON tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as gb
from .linalg import DEFAULT_DIM_CAP
from .logderiv import (
    compute_rld,
    compute_rld_fisher,
    reparametrize,
    sld_analysis,
    tilde_fisher_im,
)
from .states import EvaluatedState
from .tensor import (
    DEFAULT_ENUM_CAP,
    OPTIMIZE_MAX_VECTORS,
    OptimizeNorm,
    TradeoffMatrix,
    _check_copies,
    best_auto_align,
    block_sweep,
    composition_count,
    compute_fbar_im,
    compute_tp_exact,
    compute_tp_monte_carlo,
    pair_commutator_table,
)
from .variational import MinimizeConfig, minimize_bound

ALL_BOUNDS = (
    "cp",
    "tp",
    "tp_mc",
    "fbar",
    "rld",
    "rld_cp",
    "pure",
    "lower",
    "refs",
    "variational",
)


@dataclass
class ReportConfig:
    """What :func:`build_report` computes.  ``p_list`` keeps each p once,
    in first-occurrence order, so a report has one row per (bound, p)."""

    bounds: tuple[str, ...] = ("cp", "tp", "fbar")
    p_list: tuple[int, ...] = (1,)
    seed: int = 0
    mc_samples: int = 100_000
    dim_cap: int = DEFAULT_DIM_CAP
    enum_cap: int = DEFAULT_ENUM_CAP
    variational_iters: int = 2000  # cap on the Holevo solver's Newton steps

    def __post_init__(self):
        self.p_list = tuple(dict.fromkeys(self.p_list))


def best_fbar(state, tilde_ops, p, dim_cap=DEFAULT_DIM_CAP) -> TradeoffMatrix:
    """Default F-bar strategy: exhaustive transpose optimization over the
    computational basis while 2^(d^p) stays enumerable, otherwise the best
    per-pair commutator eigenbasis (each candidate is still a single
    basis/sign choice, so the f(n) coefficient applies).  Norms within
    SIGN_TIE_RTOL of the largest are ties, won by the first pair.  Both
    refuse a p < 1 and a largest block above ``dim_cap``."""
    if state.dim**p > OPTIMIZE_MAX_VECTORS:
        walk = block_sweep(state, tilde_ops, [p], fbar=True, dim_cap=dim_cap)
        return best_auto_align(p, walk[p].candidates)
    _check_copies((p,), state.dim, dim_cap)
    return compute_fbar_im(state, tilde_ops, p, None, OptimizeNorm())


def _stderr_max(tp: TradeoffMatrix) -> float:
    """Largest per-entry standard error of a Monte Carlo T_p."""
    return float(np.max(tp.meta["stderr"]))


def build_report(state: EvaluatedState, config: ReportConfig) -> gb.BoundReport:
    """Compute every requested bound for every p in the config."""
    which = tuple(config.bounds)
    unknown = set(which) - set(ALL_BOUNDS)
    if unknown:
        raise ValueError(f"unknown bound names: {sorted(unknown)}")
    slds, fisher, tilde = sld_analysis(state)
    n = fisher.n
    entries: list[gb.BoundEntry] = []

    rld_fisher = None
    rld_tilde = None
    if "rld" in which or "rld_cp" in which:
        rlds = compute_rld(state)  # RldUndefined propagates
        rld_fisher = compute_rld_fisher(state, rlds, fisher)
        rld_tilde = reparametrize(rlds, rld_fisher)

    # One walk over the reduced shapes serves cp and rld_cp at every p
    # and, above best_fbar's exhaustive range, the AutoAlign candidates.
    # It checks the cap at the largest p before any block.
    auto_ps = [p for p in config.p_list if "fbar" in which and state.dim**p > OPTIMIZE_MAX_VECTORS]
    walk_ps = config.p_list if "cp" in which or "rld_cp" in which else auto_ps
    walks = block_sweep(
        state, tilde, walk_ps, rld_tilde if "rld_cp" in which else None,
        cp="cp" in which, fbar=bool(auto_ps), dim_cap=config.dim_cap,
    )

    # One commutator table serves the T_p rows of every p.
    table = pair_commutator_table(state, tilde) if "tp" in which or "tp_mc" in which else None

    for p in config.p_list:
        if "cp" in which:
            entries.append(gb.BoundEntry("cp", gb.cp_bound(walks[p].cp, n), "upper", p))
        if "tp" in which:
            # Monte Carlo enumerates a law of at most mc_samples vectors
            # anyway, so such a law is summed exactly at the same cost.
            count = composition_count(p, state.support_rank)
            if count <= max(config.enum_cap, config.mc_samples):
                tp = compute_tp_exact(state, tilde, p, enum_cap=count, table=table)
                meta = {"method": "exact"}
                if count > config.enum_cap:
                    meta["fallback"] = "enum_cap"
            else:
                warnings.warn(
                    f"exact T_{p} enumeration exceeds cap; switching to Monte Carlo",
                    stacklevel=2,
                )
                tp = compute_tp_monte_carlo(
                    state, tilde, p, config.mc_samples, config.seed, table=table
                )
                meta = {"method": "monte_carlo", "fallback": "enum_cap",
                        "stderr_max": _stderr_max(tp)}
            entries.append(gb.BoundEntry("tp", gb.tp_bound(tp, n), "upper", p, meta=meta))
        if "tp_mc" in which:
            tp = compute_tp_monte_carlo(
                state, tilde, p, config.mc_samples, config.seed, table=table
            )
            entries.append(
                gb.BoundEntry(
                    "tp_mc",
                    gb.tp_bound(tp, n),
                    "upper",
                    p,
                    meta={"samples": config.mc_samples, "seed": config.seed,
                          "stderr_max": _stderr_max(tp)},
                )
            )
        if "fbar" in which:
            if p in auto_ps:
                fbar = best_auto_align(p, walks[p].candidates)
            else:
                fbar = best_fbar(state, tilde, p, dim_cap=config.dim_cap)
            entries.append(
                gb.BoundEntry(
                    "fbar",
                    gb.fbar_bound(fbar, n),
                    "upper",
                    p,
                    meta={"strategy": fbar.meta["strategy"]},
                )
            )
        if "rld_cp" in which:
            entries.append(
                gb.BoundEntry(
                    "rld_cp", gb.rld_cp_bound(walks[p].cp_rld, rld_fisher, n), "upper", p
                )
            )
        if "rld" in which:
            entries.append(
                gb.BoundEntry(
                    "rld",
                    gb.rld_standard_bound(rld_fisher),
                    "upper",
                    p,
                    meta={"p_independent": True},
                )
            )
        if "pure" in which:
            entries.append(
                gb.BoundEntry(
                    "pure",
                    gb.pure_state_bound(state, fisher),
                    "upper",
                    p,
                    meta={"p_independent": True},
                )
            )

    if "lower" in which:
        entries.append(
            gb.BoundEntry("gamma_inf_lower", gb.gamma_inf_lower(fisher, n), "lower", "inf")
        )
        entries.append(
            gb.BoundEntry("gamma_inf_upper", gb.gamma_inf_upper(fisher, n), "upper", "inf")
        )
    if "refs" in which:
        refs = gb.reference_bounds(state.dim, n)
        entries.append(
            gb.BoundEntry(
                "gill_massar",
                refs.gill_massar,
                "reference",
                None,
                meta={"nontrivial": refs.gill_massar_nontrivial},
            )
        )
        entries.append(
            gb.BoundEntry(
                "zhu_hayashi",
                refs.zhu_hayashi,
                "reference",
                None,
                meta={"nontrivial": refs.zhu_hayashi_nontrivial},
            )
        )
    if "variational" in which:
        cfg = MinimizeConfig(strategy="holevo", w=fisher.f_q, max_iters=config.variational_iters)
        res = minimize_bound(state, slds, fisher, cfg)
        entries.append(
            gb.BoundEntry(
                "variational",
                res.lower,
                "reference",
                None,
                meta={
                    "target": "nu_tr_w_cov_lower",
                    "strategy": res.strategy,
                    "converged": res.converged,
                    "certified": True,
                    "upper": res.value,
                    "gap": res.gap,
                },
            )
        )

    entries = list(_mark_tightest(entries, config.p_list))
    return gb.BoundReport(n=n, entries=tuple(entries))


def _mark_tightest(entries, p_list):
    """Flag the smallest upper bound per p.  Monte Carlo T_p rows (``tp_mc``
    and the ``tp`` fallback) are estimates, not bounds, and do not compete."""
    out = list(entries)
    for p in p_list:
        candidates = [
            (i, e) for i, e in enumerate(out) if e.kind == "upper" and e.p == p
            and e.name != "tp_mc" and e.meta.get("method") != "monte_carlo"
        ]
        if candidates:
            i_best = min(candidates, key=lambda t: t[1].value)[0]
            out[i_best] = replace(out[i_best], tightest=True)
    return out


def saturation_flags(state: EvaluatedState, p: int = 1, dim_cap: int = DEFAULT_DIM_CAP):
    """Saturation necessary conditions at p plus the weak condition."""
    _, fisher, tilde = sld_analysis(state)
    cp = block_sweep(state, tilde, [p], cp=True, dim_cap=dim_cap)[p].cp
    return gb.saturation_check(cp, tilde_fisher_im(fisher))
