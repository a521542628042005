"""Named acceptance checks with pinned tolerances.

Each check re-derives its expected values from closed forms or from
independent arithmetic and compares against the library pipeline at the
tolerance stated in its docstring.  The registry drives both the
``qmetro check`` subcommand and the pytest acceptance module, printing
one pass/fail line per criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import bounds as gb
from . import linalg, scenarios, tensor, variational
from .logderiv import sld_analysis
from .random_instances import (
    haar_unitary,
    random_linear_family,
    random_measurement,
)
from .report import ReportConfig, best_fbar, build_report, saturation_flags
from .scenarios import build_scenario, parse_scenario
from .states import EvaluatedState, StateFamily, evaluate
from .tensor import (
    block_sweep,
    compute_tp_exact,
    limit_fim,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Criterion:
    name: str
    tags: tuple[str, ...]
    fn: Callable[[], CheckResult]


def _result(name: str, deviations: list[float], tol: float, extra: str = "") -> CheckResult:
    worst = max(deviations) if deviations else 0.0
    passed = worst <= tol
    detail = f"max deviation {worst:.3e} (tol {tol:.1e})" + (f"; {extra}" if extra else "")
    return CheckResult(name=name, passed=passed, detail=detail)


def _qubit_state(delta: float) -> EvaluatedState:
    return evaluate(build_scenario(parse_scenario("qubit3", delta=delta)), np.zeros(3))


def _qutrit_state(preset: str) -> tuple[EvaluatedState, scenarios.ScenarioSpec]:
    spec = parse_scenario(preset)
    fam = build_scenario(spec)
    return evaluate(fam, np.zeros(fam.n)), spec


def _bounds_at(
    state: EvaluatedState, p_list: tuple[int, ...], extra: tuple[str, ...] = ()
) -> dict[int, dict[str, float]]:
    """The cp, tp, fbar (and ``extra``) upper-bound rows per p of one
    ``build_report``, the rows the CLI emits."""
    report = build_report(state, ReportConfig(bounds=("cp", "tp", "fbar") + extra, p_list=p_list))
    return {p: report.upper_values(p) for p in p_list}


def _cp_sweep(state: EvaluatedState, tilde, p_list) -> dict[int, tensor.TradeoffMatrix]:
    """C_p at every p of ``p_list`` from one block sweep."""
    sweep = block_sweep(state, tilde, p_list, cp=True)
    return {p: sweep[p].cp for p in p_list}


def check_01_qubit_p1() -> CheckResult:
    """cp = 9/4, tp = 11/4, fbar = 5/2 at p = 1, delta-independent; tol 1e-10."""
    tol = 1e-10
    devs = []
    for delta in (0.0, 0.3, 0.6, 0.9):
        rows = _bounds_at(_qubit_state(delta), (1,))[1]
        devs += [abs(rows["cp"] - 9 / 4), abs(rows["tp"] - 11 / 4), abs(rows["fbar"] - 5 / 2)]
    return _result("01-qubit-p1-values", devs, tol)


def check_02_qubit_p2() -> CheckResult:
    """Closed-form delta dependence of the p = 2 bounds; tol 1e-9."""
    tol = 1e-9
    devs = []
    for delta in np.linspace(0.0, 0.9, 10):
        rows = _bounds_at(_qubit_state(float(delta)), (2,))[2]
        devs.append(abs(rows["cp"] - (45 / 16 - delta**2 / 4 - delta**4 / 16)))
        devs.append(abs(rows["tp"] - (47 / 16 - delta**2 / 8 - delta**4 / 16)))
        devs.append(abs(rows["fbar"] - (3 - (1 + delta**2) ** 2 / 8)))
    return _result("02-qubit-p2-delta-grid", devs, tol)


def check_03_qubit_np_sequence() -> CheckResult:
    """Block-engine cp bound equals 3 - (3/4)(N_p/p)^2 for p = 1..10, non-decreasing, < 3."""
    tol = 1e-9
    state = _qubit_state(0.0)
    _, fisher, tilde = sld_analysis(state)
    devs = []
    seq = []
    cps = _cp_sweep(state, tilde, range(1, 11))
    for p in range(1, 11):
        val = gb.cp_bound(cps[p], 3)
        seq.append(val)
        expect = 3.0 - 0.75 * (scenarios.qubit_np(p) / p) ** 2
        devs.append(abs(val - expect))
    monotone = all(seq[i + 1] >= seq[i] - tol for i in range(len(seq) - 1))
    below = all(v < 3.0 for v in seq)
    res = _result("03-qubit-np-sequence", devs, tol, extra=f"monotone={monotone}, <3={below}")
    return CheckResult(res.name, res.passed and monotone and below, res.detail)


_QUTRIT_VALUES = {
    "qutrit8": {1: Fraction(50, 7), 2: Fraction(160, 21), 3: Fraction(1462, 189)},
    "qutrit:1,2,5": {1: Fraction(21, 8), 2: Fraction(17, 6)},
    "qutrit:1,2": {1: Fraction(3, 2), 2: Fraction(16, 9), 3: Fraction(299, 162)},
    "qutrit:1,2,4,5": {1: Fraction(7, 2), 2: Fraction(34, 9), 3: Fraction(623, 162)},
}


def check_04_qutrit_cp_values() -> CheckResult:
    """Closed-form qutrit cp bounds, cross-validated against the block engine for p <= 3."""
    tol = 1e-9
    cross_tol = 1e-8
    devs = []
    cross = []
    for preset, values in _QUTRIT_VALUES.items():
        state, spec = _qutrit_state(preset)
        _, _, tilde = sld_analysis(state)
        n = len(tilde)
        cps = _cp_sweep(state, tilde, list(values))
        for p, expect in values.items():
            closed = scenarios.qutrit_cp_closed(spec, p)
            devs.append(abs(gb.cp_bound(closed, n) - float(expect)))
            cross.append(float(np.max(np.abs(closed.entries - cps[p].entries))))
    ok_cross = max(cross) <= cross_tol
    res = _result(
        "04-qutrit-cp-values", devs, tol,
        extra=f"block cross-val max {max(cross):.3e} (tol {cross_tol:.1e})",
    )
    return CheckResult(res.name, res.passed and ok_cross, res.detail)


def check_05_fbar_values() -> CheckResult:
    """F-bar bounds from the paper's displays; tol 1e-9.

    Each F-bar comes from ``best_fbar``, the function behind the report's
    ``fbar`` rows (its exhaustive search at every d^p here).  The full
    8-parameter value 8 - 24/49 is stated with the (n-2)/(n-1)^2
    coefficient (valid for every n though not the max at n = 8), so that
    branch is requested explicitly there.
    """
    tol = 1e-9
    devs = []
    state, _ = _qutrit_state("qutrit:1,2,5")
    _, _, tilde = sld_analysis(state)
    devs.append(abs(gb.fbar_bound(best_fbar(state, tilde, 2), 3) - (3 - 2 / 9)))

    state, _ = _qutrit_state("qutrit:1,2,4,5")
    _, _, tilde = sld_analysis(state)
    devs.append(abs(gb.fbar_bound(best_fbar(state, tilde, 1), 4) - 28 / 9))
    devs.append(abs(gb.fbar_bound(best_fbar(state, tilde, 2), 4) - (4 - 32 / 81)))

    state, _ = _qutrit_state("qutrit8")
    _, _, tilde = sld_analysis(state)
    coeff = (8 - 2) / (8 - 1) ** 2
    devs.append(abs(gb.fbar_bound(best_fbar(state, tilde, 1), 8, f_coeff=coeff) - (8 - 24 / 49)))
    return _result("05-fbar-values", devs, tol)


def _monotone_case(state: EvaluatedState, p_max: int) -> tuple[float, float]:
    """(worst monotonicity violation, worst sandwich violation)."""
    _, fisher, tilde = sld_analysis(state)
    lim = limit_fim(state, tilde).entries
    prev = None
    mono_dev = 0.0
    sandwich_dev = 0.0
    cps = _cp_sweep(state, tilde, range(1, p_max + 1))
    for p in range(1, p_max + 1):
        cp = cps[p].entries / p
        tp = compute_tp_exact(state, tilde, p).entries / p
        sandwich_dev = max(sandwich_dev, float(np.max(lim - tp)), float(np.max(tp - cp)))
        if prev is not None:
            mono_dev = max(mono_dev, float(np.max(cp - prev)))
        prev = cp
    return mono_dev, sandwich_dev


def check_06_monotonicity() -> CheckResult:
    """C_p/p non-increasing (p <= 6) and limit <= T_p/p <= C_p/p entrywise."""
    mono_tol = 1e-9
    sandwich_tol = 1e-8
    cases = [
        _qubit_state(0.3),
        _qutrit_state("qutrit:1,2,5")[0],
    ]
    rng = np.random.default_rng(20240817)
    for d in (2, 3):
        for n in (2, 3):
            fam = random_linear_family(d, n, rng)
            cases.append(evaluate(fam, np.zeros(n)))
    mono = []
    sandwich = []
    for state in cases:
        m, s = _monotone_case(state, 6)
        mono.append(m)
        sandwich.append(s)
    passed = max(mono) <= mono_tol and max(sandwich) <= sandwich_tol
    detail = (
        f"monotonic violation {max(mono):.3e} (tol {mono_tol:.1e}); "
        f"sandwich violation {max(sandwich):.3e} (tol {sandwich_tol:.1e})"
    )
    return CheckResult("06-monotonicity-sandwich", passed, detail)


def check_07_convergence() -> CheckResult:
    """|C_p/p - T_p/p| decreases and both approach the limit from above."""
    tol = 1e-9
    state = _qubit_state(0.5)
    _, fisher, tilde = sld_analysis(state)
    lim = limit_fim(state, tilde).entries
    gaps = []
    c12 = []
    t12 = []
    cps = _cp_sweep(state, tilde, range(1, 9))
    for p in range(1, 9):
        cp = cps[p].entries / p
        tp = compute_tp_exact(state, tilde, p).entries / p
        gaps.append(cp - tp)
        c12.append(cp[0, 1])
        t12.append(tp[0, 1])
    gap_dev = max(
        float(np.max(gaps[i + 1] - gaps[i])) for i in range(len(gaps) - 1)
    )
    mono_dev = max(
        max(c12[i + 1] - c12[i] for i in range(7)),
        max(t12[i + 1] - t12[i] for i in range(7)),
    )
    above_dev = max(max(lim[0, 1] - v for v in c12), max(lim[0, 1] - v for v in t12))
    passed = gap_dev <= tol and mono_dev <= tol and above_dev <= tol
    detail = (
        f"gap growth {gap_dev:.3e}, entry growth {mono_dev:.3e}, "
        f"below-limit {above_dev:.3e} (limit entry {lim[0, 1]:.3f}, tol {tol:.1e})"
    )
    return CheckResult("07-convergence-to-limit", passed, detail)


def check_08_cov_dominates() -> CheckResult:
    """Cov_u >= A_u (min eig >= -1e-9) and sum_q Cov_{u_q} = Cov on 200 triples."""
    tol = 1e-9
    rng = np.random.default_rng(20240818)
    worst_eig = 0.0
    worst_sum = 0.0
    for t in range(200):
        d = (2, 3, 4)[t % 3]
        n = 2 + (t % 2)
        fam = random_linear_family(d, n, rng)
        state = evaluate(fam, np.zeros(n))
        meas = random_measurement(d, n, rng)
        x_set = variational.observables_from_measurement(meas, np.zeros(n), state)
        basis = haar_unitary(d, rng)
        total = np.zeros((n, n))
        for q in range(d):
            u = basis[:, q]
            cov_u = variational.cov_u_matrix(meas, np.zeros(n), state, u)
            a_u = variational.a_u_matrix(state, x_set.ops, u)
            gap = np.linalg.eigvalsh(linalg.hermitian_part(cov_u - a_u))
            worst_eig = max(worst_eig, -float(np.min(gap)))
            total += cov_u
        cov = variational.cov_matrix(meas, np.zeros(n), state)
        worst_sum = max(worst_sum, float(np.max(np.abs(total - cov))))
    passed = worst_eig <= tol and worst_sum <= tol
    detail = f"worst -min-eig {worst_eig:.3e}, completeness residual {worst_sum:.3e} (tol {tol:.1e})"
    return CheckResult("08-cov-dominates-au", passed, detail)


def check_09_variational_reductions() -> CheckResult:
    """General bound reduces to Holevo/Nagaoka; canonical start <= 2n."""
    rng = np.random.default_rng(20240819)
    holevo_dev = 0.0
    nagaoka_dev = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        fam = random_linear_family(d, n, rng)
        state = evaluate(fam, np.zeros(n))
        slds, fisher, _ = sld_analysis(state)
        x_set = variational.canonical_unbiased(state, slds, fisher)
        w = np.eye(n)
        via_basis = variational.evaluate_general_bound(x_set, state, w=w)
        z = variational.z_matrix(state, x_set.ops)
        direct = float(np.trace(np.real(z))) + linalg.trace_norm(np.imag(z))
        holevo_dev = max(holevo_dev, abs(via_basis - direct))
        if n == 2:
            basis, signs = variational.nagaoka_alignment(state, x_set.ops)
            nag = variational.evaluate_general_bound(x_set, state, basis, signs, w=w)
            nagaoka_dev = max(nagaoka_dev, via_basis - nag)
    start_dev = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        fam = random_linear_family(d, n, rng)
        state = evaluate(fam, np.zeros(n))
        slds, fisher, _ = sld_analysis(state)
        x_set = variational.canonical_unbiased(state, slds, fisher)
        obj = variational.holevo_objective(state, x_set.ops, fisher.f_q)
        start_dev = max(start_dev, obj - 2 * n)
    passed = holevo_dev <= 1e-10 and nagaoka_dev <= 1e-9 and start_dev <= 1e-9
    detail = (
        f"holevo mismatch {holevo_dev:.3e} (tol 1e-10); nagaoka below holevo by "
        f"{nagaoka_dev:.3e} (tol 1e-9); canonical-start excess over 2n {start_dev:.3e}"
    )
    return CheckResult("09-variational-reductions", passed, detail)


def check_10_saturation_logic() -> CheckResult:
    """Classical families saturate every bound at n; the qubit example is
    weak- but not partial-commutative at p = 1."""
    tol = 1e-8
    rng = np.random.default_rng(20240820)
    devs = []
    flags_ok = True
    # Traceless diagonal matrices span d-1 dimensions, so classical
    # families need n <= d-1 for a nonsingular F_Q.
    for d, n_params in ((3, 2), (4, 2), (4, 3)):
        fam = random_linear_family(d, n_params, rng, classical=True)
        state = evaluate(fam, np.zeros(n_params))
        flags = saturation_flags(state, p=1)
        flags_ok = flags_ok and flags.partial_commutative and flags.weak_commutative
        rows = _bounds_at(state, (1,), extra=("rld", "rld_cp"))[1]
        devs += [abs(value - n_params) for value in rows.values()]
    qubit_flags = saturation_flags(_qubit_state(0.0), p=1)
    flags_ok = (
        flags_ok
        and not qubit_flags.partial_commutative
        and qubit_flags.weak_commutative
    )
    res = _result("10-saturation-logic", devs, tol, extra=f"flags ok: {flags_ok}")
    return CheckResult(res.name, res.passed and flags_ok, res.detail)


def check_11_trace_norm_sandwich() -> CheckResult:
    """sum |M_jj| <= ||M||_1 <= sum_j sqrt(sum_k |M_jk|^2) on 500 matrices."""
    tol = 1e-10
    rng = np.random.default_rng(20240821)
    devs = []
    for _ in range(500):
        d = int(rng.integers(1, 17))
        scale = float(rng.uniform(0.1, 10.0))
        m = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        tn = linalg.trace_norm(m)
        lower = float(np.sum(np.abs(np.diag(m))))
        upper = float(np.sum(np.sqrt(np.sum(np.abs(m) ** 2, axis=1))))
        devs.append(lower - tn)
        devs.append(tn - upper)
    return _result("11-trace-norm-sandwich", devs, tol)


def _pure_qubit_family() -> StateFamily:
    def rho(x: np.ndarray) -> np.ndarray:
        v = np.array([x[0], x[1], 0.0])
        theta = float(np.linalg.norm(v))
        if theta < 1e-300:
            u = np.eye(2, dtype=np.complex128)
        else:
            axis = v / theta
            h = axis[0] * scenarios.SIGMA1 + axis[1] * scenarios.SIGMA2 + axis[2] * scenarios.SIGMA3
            u = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * h
        ket = u[:, 0]
        return np.outer(ket, np.conj(ket))

    return StateFamily.from_callable(2, 2, rho)


def check_12_reparametrization() -> CheckResult:
    """cp, tp and pure-state bounds are invariant under x -> Mx; tol 1e-7.

    tp is invariant at every p here (a single commutator direction
    carries all the diagonal weight).  cp is exact at p = 1 (the
    paper-level statement about ||C_1||_F) and, for this example, at
    p = 2; with a symmetry-breaking offset the p = 3 trace norms of
    mixed collective commutators genuinely change by ~5e-4, so cp is
    checked where the orthogonal-transformation argument applies:
    all p at delta = 0 (full rotational symmetry), p <= 2 at delta = 0.3.
    """
    tol = 1e-7
    rng = np.random.default_rng(20240822)
    devs = []
    for delta, cp_ps in ((0.0, (1, 2, 3)), (0.3, (1, 2))):
        fam = build_scenario(parse_scenario("qubit3", delta=delta))
        state = evaluate(fam, np.zeros(3))
        base = _bounds_at(state, (1, 2, 3))
        for _ in range(3):
            m = rng.standard_normal((3, 3))
            while abs(np.linalg.det(m)) < 0.3:
                m = rng.standard_normal((3, 3))
            minv = np.linalg.inv(m)
            gens = [
                sum(minv[j, k] * fam.generators[j] for j in range(3)) for k in range(3)
            ]
            fam2 = StateFamily.linear(fam.rho0, gens)
            state2 = evaluate(fam2, np.zeros(3))
            rows = _bounds_at(state2, (1, 2, 3))
            for p in (1, 2, 3):
                if p in cp_ps:
                    devs.append(abs(rows[p]["cp"] - base[p]["cp"]))
                devs.append(abs(rows[p]["tp"] - base[p]["tp"]))
    pure_fam = _pure_qubit_family()
    pure_state = evaluate(pure_fam, np.zeros(2))
    _, fisher, _ = sld_analysis(pure_state)
    base_pure = gb.pure_state_bound(pure_state, fisher)
    for _ in range(3):
        m = rng.standard_normal((2, 2))
        while abs(np.linalg.det(m)) < 0.3:
            m = rng.standard_normal((2, 2))
        minv = np.linalg.inv(m)

        def rho2(y: np.ndarray, _minv=minv, _f=pure_fam) -> np.ndarray:
            return _f.rho(_minv @ y)

        fam2 = StateFamily.from_callable(2, 2, rho2)
        state2 = evaluate(fam2, np.zeros(2))
        _, fisher2, _ = sld_analysis(state2)
        devs.append(abs(gb.pure_state_bound(state2, fisher2) - base_pure))
    return _result("12-reparametrization-invariance", devs, tol)


CRITERIA: tuple[Criterion, ...] = (
    Criterion("01-qubit-p1-values", ("paper-values",), check_01_qubit_p1),
    Criterion("02-qubit-p2-delta-grid", ("paper-values",), check_02_qubit_p2),
    Criterion("03-qubit-np-sequence", ("paper-values",), check_03_qubit_np_sequence),
    Criterion("04-qutrit-cp-values", ("paper-values",), check_04_qutrit_cp_values),
    Criterion("05-fbar-values", ("paper-values",), check_05_fbar_values),
    Criterion("06-monotonicity-sandwich", ("properties",), check_06_monotonicity),
    Criterion("07-convergence-to-limit", ("properties",), check_07_convergence),
    Criterion("08-cov-dominates-au", ("properties",), check_08_cov_dominates),
    Criterion("09-variational-reductions", ("properties",), check_09_variational_reductions),
    Criterion("10-saturation-logic", ("properties",), check_10_saturation_logic),
    Criterion("11-trace-norm-sandwich", ("properties",), check_11_trace_norm_sandwich),
    Criterion("12-reparametrization-invariance", ("properties",), check_12_reparametrization),
)


def run_checks(only: str | None = None) -> list[CheckResult]:
    results = []
    for crit in CRITERIA:
        if only is not None and only not in crit.tags:
            continue
        results.append(crit.fn())
    return results
