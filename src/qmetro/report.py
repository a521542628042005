"""Assembly of composite bound reports for an evaluated state.

For a given state and list of copy counts this computes every requested
bound, flags the tightest upper bound per p (the bounds combine freely,
so the minimum is itself the operative bound), and carries enough
metadata to serialize deterministic CSV/JSON tables.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds as gb
from .errors import EnumerationOverflow
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
    UBasis,
    auto_align_fbar,
    build_collective,
    compute_cp,
    compute_cp_rld,
    compute_fbar_im,
    compute_tp_exact,
    compute_tp_monte_carlo,
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
    bounds: tuple[str, ...] = ("cp", "tp", "fbar")
    p_list: tuple[int, ...] = (1,)
    nu: int = 1
    seed: int = 0
    mc_samples: int = 100_000
    dim_cap: int = DEFAULT_DIM_CAP
    enum_cap: int = DEFAULT_ENUM_CAP
    weight: np.ndarray | None = None  # variational weight; default F_Q
    variational_iters: int = 2000  # cap on the Holevo solver's Newton steps
    meta: dict = field(default_factory=dict)


def best_fbar(state, tilde_ops, fisher, p, dim_cap=DEFAULT_DIM_CAP) -> TradeoffMatrix:
    """Default F-bar strategy: exhaustive transpose optimization over the
    computational basis while 2^(d^p) stays enumerable, otherwise the best
    per-pair commutator eigenbasis (each candidate is still a single
    basis/sign choice, so the f(n) coefficient applies)."""
    coll = build_collective(state, tilde_ops, p, dim_cap=dim_cap)
    if coll.dim <= OPTIMIZE_MAX_VECTORS:
        return compute_fbar_im(coll, UBasis.computational(coll.dim), OptimizeNorm())
    best = None
    best_norm = -1.0
    pairs = list(itertools.combinations(range(coll.n), 2))
    for cand in auto_align_fbar(coll, pairs):
        norm = float(np.linalg.norm(cand.entries))
        if norm > best_norm + 1e-15:
            best_norm = norm
            best = cand
    return best


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

    for p in config.p_list:
        if "cp" in which:
            coll = build_collective(state, tilde, p, dim_cap=config.dim_cap)
            entries.append(
                gb.BoundEntry("cp", gb.cp_bound(compute_cp(coll), n), "upper", p)
            )
        if "tp" in which:
            try:
                tp = compute_tp_exact(state, tilde, p, enum_cap=config.enum_cap)
                meta = {"method": "exact"}
            except EnumerationOverflow:
                warnings.warn(
                    f"exact T_{p} enumeration exceeds cap; switching to Monte Carlo",
                    stacklevel=2,
                )
                tp = compute_tp_monte_carlo(
                    state, tilde, p, config.mc_samples, config.seed
                )
                meta = {"method": "monte_carlo", "fallback": "enum_cap",
                        "stderr_max": _stderr_max(tp)}
            entries.append(gb.BoundEntry("tp", gb.tp_bound(tp, n), "upper", p, meta=meta))
        if "tp_mc" in which:
            tp = compute_tp_monte_carlo(state, tilde, p, config.mc_samples, config.seed)
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
            fbar = best_fbar(state, tilde, fisher, p, dim_cap=config.dim_cap)
            entries.append(
                gb.BoundEntry(
                    "fbar",
                    gb.fbar_bound(fbar, fisher, n),
                    "upper",
                    p,
                    meta={"strategy": fbar.meta["strategy"]},
                )
            )
        if "rld_cp" in which:
            coll = build_collective(
                state, rld_tilde, p, kind="rld", tilded=True, dim_cap=config.dim_cap
            )
            entries.append(
                gb.BoundEntry(
                    "rld_cp", gb.rld_cp_bound(compute_cp_rld(coll), rld_fisher, n), "upper", p
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
        cfg = MinimizeConfig(
            strategy="holevo",
            w=config.weight if config.weight is not None else fisher.f_q,
            max_iters=config.variational_iters,
        )
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
    return gb.BoundReport(
        n=n, d=state.dim, nu=config.nu, entries=tuple(entries), weight=config.weight
    )


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
    coll = build_collective(state, tilde, p, dim_cap=dim_cap)
    return gb.saturation_check(compute_cp(coll), tilde_fisher_im(fisher))
