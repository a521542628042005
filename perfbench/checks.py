"""Correctness checks on the CSV each benchmark call writes.

Values are compared with the closed forms of ``qmetro.scenarios`` where
those hold (qubit3 T_p at any delta, the qubit3 p <= 2 formulas of
acceptance checks 01 and 02, qubit3 C_p and the qutrit C_p and T_p at
delta = 0) and with ordering invariants elsewhere.  Each check has a
name; :class:`CheckLog` counts how often each one ran and failed.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from functools import lru_cache

import numpy as np

from qmetro import scenarios

#: Bound names whose rows carry an integer p.
P_BOUNDS = ("cp", "tp", "tp_mc", "fbar", "rld", "rld_cp", "pure")

#: Slack on ordering invariants between computed values.
ORDER_ATOL = 1e-9

#: Standard errors allowed between tp_mc and exact tp.
MC_Z = 6.0


class CheckLog:
    """How often each named check ran and failed."""

    def __init__(self):
        self.ran = Counter()
        self.failed = Counter()

    def record(self, name: str, ok: bool, failures: list[str]) -> None:
        self.ran[name] += 1
        if not ok:
            self.failed[name] += 1
            failures.append(name)


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["value"] = float(row["value"])
    return rows


def _pair_sum(entries: np.ndarray, p: int) -> float:
    m = np.asarray(entries) / p
    return float(np.sum(m * m))


def _gap_bound(n: int, pair_sum: float) -> float:
    """n - ||M/p||_F^2 / (4(n-1)), the form of the cp and tp bounds."""
    return n - pair_sum / (4.0 * (n - 1))


@lru_cache(maxsize=None)
def _qubit3_tp(p: int, delta: float) -> float:
    return _gap_bound(3, _pair_sum(scenarios.qubit_tp_closed(p, delta).entries, p))


@lru_cache(maxsize=None)
def _qutrit_closed(preset: str, p: int) -> tuple[float, float]:
    spec = scenarios.parse_scenario(preset)
    n = len(spec.subset)
    cp = _gap_bound(n, _pair_sum(scenarios.qutrit_cp_closed(spec, p).entries, p))
    tp = _gap_bound(n, _pair_sum(scenarios.qutrit_tp_closed(spec, p).entries, p))
    return cp, tp


@lru_cache(maxsize=None)
def _commutator_moments(preset: str, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance, over the eigenvectors |i> weighted by lambda_i, of
    c_i = <i|[L~_j, L~_k]|i>/i for each pair (j, k) of a preset state.

    Both presets have a diagonal rho, so the SLDs are
    L_ab = 2 G_ab / (lambda_a + lambda_b) in the computational basis.
    """
    fam = scenarios.build_scenario(scenarios.parse_scenario(preset, delta=delta))
    lam = np.real(np.diag(fam.rho0))
    slds = [2.0 * g / (lam[:, None] + lam[None, :]) for g in fam.generators]
    n = len(slds)
    rho = np.diag(lam)
    f_q = np.array([[np.real(np.trace(rho @ a @ b)) for b in slds] for a in slds])
    w, v = np.linalg.eigh(f_q)
    s = (v / np.sqrt(w)) @ v.T
    tilde = [sum(s[j, q] * slds[q] for q in range(n)) for j in range(n)]
    mean = np.zeros((n, n))
    var = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            c = np.imag(np.diag(tilde[j] @ tilde[k] - tilde[k] @ tilde[j]))
            mean[j, k] = lam @ c
            var[j, k] = lam @ (c - mean[j, k]) ** 2
    return mean, var


def mc_tolerance(preset: str, delta: float, p: int, samples: int) -> float:
    """Allowed |tp_mc - tp| for ``samples`` Monte Carlo draws at ``p``.

    A draw of the (j, k) entry of T_p/p is |X| with X = sum_r c_{v_r} / (2p),
    where the v_r are iid eigenvector indices, so
    Var|X| <= Var X = var_c / (4p) and E|X| <= sqrt(E X^2).  The sample
    mean is then within e = MC_Z sqrt(var_c / (4p samples)) of the exact
    entry t, and n - ||T/p||^2 / (4(n-1)) moves by at most
    sum (2 t e + e^2) / (4(n-1)).
    """
    mean, var = _commutator_moments(preset, delta)
    n = mean.shape[0]
    t = np.sqrt(var / (4.0 * p) + mean**2 / 4.0)
    e = MC_Z * np.sqrt(var / (4.0 * p * samples))
    return float(np.sum(2.0 * t * e + e * e)) / (4.0 * (n - 1))


def _expected_rows(call) -> list[tuple[str, object]]:
    keys = [(b, p) for b in call.bounds if b in P_BOUNDS for p in call.p_list]
    if "lower" in call.bounds:
        keys += [("gamma_inf_lower", "inf"), ("gamma_inf_upper", "inf")]
    if "refs" in call.bounds:
        keys += [("gill_massar", ""), ("zhu_hayashi", "")]
    if "variational" in call.bounds:
        keys.append(("variational", ""))
    return keys


def check_call(call, rows: list[dict], log: CheckLog) -> list[str]:
    """Run every applicable check on one call's rows; return failed names."""
    failures: list[str] = []
    found: dict[tuple[str, object], list[float]] = {}
    for row in rows:
        p = int(row["p"]) if row["p"].isdigit() else row["p"]
        found.setdefault((row["bound_name"], p), []).append(row["value"])
    v = {key: vals[0] for key, vals in found.items() if len(vals) == 1}

    # Every requested row is present exactly once, with the right label; a
    # sweep adds either the QCRB reference or the Gamma_inf sandwich.
    complete = all(key in v for key in _expected_rows(call))
    complete = complete and all(row["scenario"] == call.label for row in rows)
    if call.sweep:
        complete = complete and (
            ("qcrb_holevo", "") in v
            or (("gamma_inf_lower", "inf") in v and ("gamma_inf_upper", "inf") in v)
        )
    log.record("rows_complete", complete, failures)
    log.record("finite", all(math.isfinite(row["value"]) for row in rows), failures)
    if not complete:
        return failures

    def record(name, deviations, tol):
        log.record(name, max(deviations) <= tol, failures)

    n, delta, ps = call.n, call.delta, call.p_list
    asked = set(call.bounds)
    if call.preset == "qubit3":
        if "tp" in asked:
            record("qubit3_tp_closed", [abs(v["tp", p] - _qubit3_tp(p, delta)) for p in ps], 1e-9)
        p1 = {"cp": 9 / 4, "tp": 11 / 4, "fbar": 5 / 2}
        if 1 in ps and asked & p1.keys():
            record("qubit3_p1_values", [abs(v[b, 1] - x) for b, x in p1.items() if b in asked],
                   1e-10)
        p2 = {
            "cp": 45 / 16 - delta**2 / 4 - delta**4 / 16,
            "tp": 47 / 16 - delta**2 / 8 - delta**4 / 16,
            "fbar": 3 - (1 + delta**2) ** 2 / 8,
        }
        if 2 in ps and asked & p2.keys():
            record("qubit3_p2_delta", [abs(v[b, 2] - x) for b, x in p2.items() if b in asked],
                   1e-9)
        if delta == 0.0 and "cp" in asked:
            closed = [3.0 - 0.75 * (scenarios.qubit_np(p) / p) ** 2 for p in ps]
            record("qubit3_cp_closed", [abs(v["cp", p] - c) for p, c in zip(ps, closed)], 1e-9)
    elif call.preset is not None and delta == 0.0:
        for idx, name in enumerate(("cp", "tp")):
            if name in asked:
                closed = [_qutrit_closed(call.preset, p)[idx] for p in ps]
                record(f"qutrit_{name}_closed",
                       [abs(v[name, p] - c) for p, c in zip(ps, closed)], 1e-9)

    if {"cp", "tp"} <= asked:
        record("cp_le_tp", [v["cp", p] - v["tp", p] for p in ps], ORDER_ATOL)
    if "cp" in asked and len(ps) > 1:
        seq = [v["cp", p] for p in sorted(ps)]
        record("cp_nondecreasing", [a - b for a, b in zip(seq, seq[1:])], ORDER_ATOL)

    # Finite-p upper bounds of the form n - gap never exceed n; the RLD
    # ones may (they are then trivially true).
    uppers = [v[b, p] for b in ("cp", "tp", "tp_mc", "fbar") if b in asked for p in ps]
    if uppers:
        record("upper_le_n", [u - n for u in uppers], ORDER_ATOL)

    # Only bounds that also hold as p -> infinity must dominate the lower
    # end of the Gamma_inf sandwich: a finite-p bound sits below Gamma_inf
    # whenever collective measurements help (qubit3 at delta = 0 has
    # cp = 9/4 at p = 1 and gamma_inf_lower = 3).
    low = v.get(("gamma_inf_lower", "inf"))
    if low is not None:
        inf_uppers = [v["gamma_inf_upper", "inf"]]
        if "rld" in asked:
            inf_uppers += [v["rld", p] for p in ps]
        record("inf_upper_ge_inf_lower", [low - u for u in inf_uppers], ORDER_ATOL)

    if "variational" in asked:
        x = v["variational", ""]
        record("variational_range", [n - x, x - 2 * n], ORDER_ATOL)

    if "refs" in asked:
        record("reference_constants", [
            abs(v["gill_massar", ""] - (call.d - 1)),
            abs(v["zhu_hayashi", ""] - 1.5 * (call.d - 1)),
        ], 1e-12)

    if {"tp", "tp_mc"} <= asked and call.preset is not None:
        ok = all(
            abs(v["tp_mc", p] - v["tp", p]) <= mc_tolerance(call.preset, delta, p, call.mc_samples)
            for p in ps
        )
        log.record("tp_mc_tolerance", ok, failures)
    return failures
