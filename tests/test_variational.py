from __future__ import annotations

import os

import numpy as np
import pytest

from qmetro import cli, linalg, variational
from qmetro.errors import (
    DegenerateConstraints,
    DimMismatch,
    InvalidN,
    InvalidState,
    InvalidWeight,
)
from qmetro.logderiv import compute_rld, compute_rld_fisher, sld_analysis
from qmetro.random_instances import (
    haar_unitary,
    random_linear_family,
    random_measurement,
    random_traceless_hermitian,
)
from qmetro.scenarios import SIGMA1, SIGMA2, SIGMA3, build_scenario, parse_scenario
from qmetro.states import EvaluatedState, StateFamily, evaluate, load_family
from qmetro.tensor import AlignEntry
from qmetro.variational import (
    LocalMeasurement,
    MinimizeConfig,
    canonical_unbiased,
    evaluate_general_bound,
    holevo_objective,
    minimize_bound,
    nagaoka_alignment,
    nagaoka_objective,
    observables_from_measurement,
    pair_matrices,
    project_unbiased,
    z_matrix,
)


DATA = os.path.join(os.path.dirname(__file__), "data")


def _random_state(rng, d=None, n=None):
    d = d or int(rng.integers(2, 5))
    n = n or int(rng.integers(2, 4))
    fam = random_linear_family(d, n, rng)
    return evaluate(fam, np.zeros(n))


def _problem(st, w, strategy):
    return variational._MinimaxProblem(st, variational._check_weight(w, st.n), strategy)


def _dual_at_norm(prob, rng, norm):
    """A random dual matrix M = sum_a y_a E_a with ||M|| = norm, and its y."""
    y = rng.standard_normal(len(prob.e))
    y *= norm / np.linalg.norm(np.tensordot(y, prob.e, 1), 2)
    return np.tensordot(y, prob.e, 1), y


class TestObservablesFromMeasurement:
    def test_projective_sigma3(self):
        st = EvaluatedState.from_matrices(np.eye(2) / 2, [SIGMA3 / 2, SIGMA1 / 2])
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        proj1 = np.diag([0.0, 1.0]).astype(complex)
        meas = LocalMeasurement(
            elements=(proj0, proj1), estimates=np.array([[1.0, 0.0], [-1.0, 0.0]])
        )
        x_set = observables_from_measurement(meas, np.zeros(2), st)
        assert np.allclose(x_set.ops[0], SIGMA3)
        # estimating <sigma_3> with +-1 outcomes is locally unbiased for x1
        assert abs(x_set.trace_residuals[0]) <= 1e-12
        assert abs(x_set.unbias_residual[0, 0]) <= 1e-12

    def test_sld_eigenbasis_single_parameter(self):
        # Projective measurement on the SLD eigenbasis with estimates
        # x0 + eigenvalue/F_Q reproduces X = F_Q^-1 L for that parameter.
        rng = np.random.default_rng(53)
        fam = random_linear_family(3, 2, rng)
        st = evaluate(fam, np.zeros(2))
        slds, fisher, _ = sld_analysis(st)
        es = linalg.eigh(slds.ops[0])
        fq = fisher.f_q[0, 0]
        elements = []
        estimates = []
        for i in range(3):
            v = es.vectors[:, i]
            elements.append(np.outer(v, v.conj()))
            estimates.append([es.values[i] / fq, 0.0])
        meas = LocalMeasurement(elements=tuple(elements), estimates=np.array(estimates))
        x_set = observables_from_measurement(meas, np.zeros(2), st)
        assert np.max(np.abs(x_set.ops[0] - slds.ops[0] / fq)) <= 1e-10
        assert abs(x_set.unbias_residual[0, 0]) <= 1e-8

    def test_degenerate_measurement_flagged(self):
        st = EvaluatedState.from_matrices(np.eye(2) / 2, [SIGMA3 / 2, SIGMA1 / 2])
        meas = LocalMeasurement(
            elements=(np.eye(2, dtype=complex),), estimates=np.zeros((1, 2))
        )
        x_set = observables_from_measurement(meas, np.zeros(2), st)
        assert all(np.allclose(x, 0) for x in x_set.ops)
        # unbiasedness fails: residual of Tr(d_k rho X_j) - delta is -I
        assert np.max(np.abs(x_set.unbias_residual + np.eye(2))) <= 1e-12

    def test_povm_validation(self):
        bad = LocalMeasurement(
            elements=(np.eye(2, dtype=complex) * 0.5,), estimates=np.zeros((1, 2))
        )
        with pytest.raises(InvalidState):
            bad.validate()


class TestProjectUnbiased:
    def test_feasible_fixed_point(self):
        rng = np.random.default_rng(59)
        st = _random_state(rng, d=3, n=2)
        slds, fisher, _ = sld_analysis(st)
        x_set = canonical_unbiased(st, slds, fisher)
        projected = project_unbiased(x_set.ops, st)
        for a, b in zip(projected.ops, x_set.ops):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_zero_start_minimal_norm(self):
        # Oracle: the projection of 0 is the minimal-norm feasible point,
        # i.e. the solution of the small Gram linear system.
        rng = np.random.default_rng(61)
        st = _random_state(rng, d=2, n=2)
        projected = project_unbiased([np.zeros((2, 2))] * 2, st)
        frame = [st.rho] + list(st.derivs)
        gram = np.array(
            [[np.real(np.trace(a @ b)) for b in frame] for a in frame]
        )
        for j in range(2):
            targets = np.zeros(3)
            targets[1 + j] = 1.0
            coeffs = np.linalg.solve(gram, -targets)
            direct = -sum(c * v for c, v in zip(coeffs, frame))
            assert np.max(np.abs(projected.ops[j] - direct)) <= 1e-10

    def test_canonical_choice_feasible(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            st = _random_state(rng)
            slds, fisher, _ = sld_analysis(st)
            x_set = canonical_unbiased(st, slds, fisher)
            traces, unbias = variational.constraint_witnesses(x_set.ops, st)
            assert np.max(np.abs(traces)) <= 1e-9
            assert np.max(np.abs(unbias)) <= 1e-9

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-10])
    def test_canonical_choice_near_singular(self, eps):
        # F_Q^-1 L alone misses Tr(d_k rho X_j) = delta_kj by up to 1.5e-7
        # here; the projection restores it to rounding.
        rng = np.random.default_rng(3)
        gens = [random_traceless_hermitian(3, rng) for _ in range(2)]
        st = evaluate(StateFamily.linear(np.diag([0.6, 0.4 - eps, eps]), gens), np.zeros(2))
        slds, fisher, _ = sld_analysis(st)
        x_set = canonical_unbiased(st, slds, fisher)
        traces, unbias = variational.constraint_witnesses(x_set.ops, st)
        assert np.max(np.abs(traces)) <= 1e-12
        assert np.max(np.abs(unbias)) <= 1e-12

    def test_degenerate_constraints(self):
        st = EvaluatedState.from_matrices(np.eye(2) / 2, [SIGMA1 / 2, SIGMA1 / 2])
        with pytest.raises(DegenerateConstraints):
            project_unbiased([np.zeros((2, 2))] * 2, st)


def general_bound_loop(ops, st, basis, signs, w):
    """Oracle: A_u vector by vector, with AlignEntry signs from Im (A_u)_jk
    (values within 1e-12 of the largest |value| take as is)."""
    a_list = [variational.a_u_matrix(st, ops, u) for u in basis.T]
    if isinstance(signs, AlignEntry):
        vals = np.array([np.imag(a[signs.j, signs.k]) for a in a_list])
        sign_arr = np.where(vals < -1e-12 * np.max(np.abs(vals)), -1.0, 1.0)
    else:
        sign_arr = signs
    a_re = sum(np.real(a) for a in a_list)
    a_im = sum(s * np.imag(a) for s, a in zip(sign_arr, a_list))
    a_im = (a_im - a_im.T) / 2.0
    sqrt_w = linalg.sqrt_psd(w)
    return float(np.sum(w * a_re)) + linalg.trace_norm(sqrt_w @ a_im @ sqrt_w)


class TestGeneralBound:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_per_vector_loop(self, d):
        rng = np.random.default_rng(60 + d)
        for n in (2, 3, 2, 3):
            st = _random_state(rng, d=d, n=n)
            slds, fisher, _ = sld_analysis(st)
            ops = canonical_unbiased(st, slds, fisher).ops
            g = rng.standard_normal((n, n))
            w = g @ g.T + 0.1 * np.eye(n)
            haar = haar_unitary(d, rng)
            cases = [(haar, AlignEntry(0, 1)), (haar, AlignEntry(n - 1, 0))]
            if n == 2:
                cases.append(nagaoka_alignment(st, ops))
            for basis, signs in cases:
                got = evaluate_general_bound(ops, st, basis, signs, w=w)
                ref = general_bound_loop(ops, st, basis, signs, w)
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_wrong_size_basis(self):
        rng = np.random.default_rng(67)
        st = _random_state(rng, d=2, n=2)
        slds, fisher, _ = sld_analysis(st)
        x_set = canonical_unbiased(st, slds, fisher)
        with pytest.raises(DimMismatch):
            evaluate_general_bound(x_set, st, np.eye(4), [1] * 4)

    def test_asis_equals_holevo_functional(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            st = _random_state(rng)
            slds, fisher, _ = sld_analysis(st)
            x_set = canonical_unbiased(st, slds, fisher)
            w = np.eye(fisher.n)
            via = evaluate_general_bound(x_set, st, w=w)
            z = z_matrix(st, x_set.ops)
            direct = float(np.trace(np.real(z))) + linalg.trace_norm(np.imag(z))
            assert via == pytest.approx(direct, abs=1e-10)

    def test_asis_basis_independent(self):
        rng = np.random.default_rng(73)
        st = _random_state(rng, d=3, n=2)
        slds, fisher, _ = sld_analysis(st)
        x_set = canonical_unbiased(st, slds, fisher)
        v1 = evaluate_general_bound(x_set, st)
        u = haar_unitary(3, rng)
        v2 = evaluate_general_bound(x_set, st, u, [1] * 3)
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_nagaoka_reduction(self):
        rng = np.random.default_rng(79)
        st = _random_state(rng, d=2, n=2)
        slds, fisher, _ = sld_analysis(st)
        x_set = canonical_unbiased(st, slds, fisher)
        basis, signs = nagaoka_alignment(st, x_set.ops)
        value = evaluate_general_bound(x_set, st, basis, signs)
        s = st.sqrt_rho
        expected = (
            float(np.real(np.trace(st.rho @ x_set.ops[0] @ x_set.ops[0])))
            + float(np.real(np.trace(st.rho @ x_set.ops[1] @ x_set.ops[1])))
            + linalg.trace_norm(s @ linalg.commutator(x_set.ops[0], x_set.ops[1]) @ s)
        )
        assert value == pytest.approx(expected, abs=1e-10)

    def test_nagaoka_at_least_holevo(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            st = _random_state(rng, n=2)
            slds, fisher, _ = sld_analysis(st)
            x_set = canonical_unbiased(st, slds, fisher)
            holevo = evaluate_general_bound(x_set, st)
            basis, signs = nagaoka_alignment(st, x_set.ops)
            nagaoka = evaluate_general_bound(x_set, st, basis, signs)
            assert nagaoka >= holevo - 1e-9

    def test_commuting_operators_real_only(self):
        st = EvaluatedState.from_matrices(
            np.diag([0.6, 0.4]), [np.diag([0.5, -0.5]), SIGMA1 / 2]
        )
        x1 = np.diag([1.0, -1.0])
        x2 = np.diag([2.0, -2.0])
        val = evaluate_general_bound([x1, x2], st)
        z = z_matrix(st, [x1, x2])
        assert np.max(np.abs(np.imag(z))) <= 1e-12
        assert val == pytest.approx(float(np.trace(np.real(z))), abs=1e-12)

    def test_any_sign_choice_still_bounds(self):
        # Validity: for every sign pattern the value stays below the true
        # weighted covariance of an explicit measurement (here the SLD
        # projective measurement whose Cov we can compute directly).
        rng = np.random.default_rng(89)
        st = _random_state(rng, d=2, n=2)
        meas = random_measurement(2, 2, rng)
        x_set = observables_from_measurement(meas, np.zeros(2), st)
        cov = variational.cov_matrix(meas, np.zeros(2), st)
        for signs in ([1, 1], [1, -1], [-1, -1]):
            val = evaluate_general_bound(x_set, st, None, signs)
            assert val <= float(np.trace(cov)) + 1e-9

    def test_invalid_weight(self):
        rng = np.random.default_rng(97)
        st = _random_state(rng, d=2, n=2)
        slds, fisher, _ = sld_analysis(st)
        x_set = canonical_unbiased(st, slds, fisher)
        with pytest.raises(InvalidWeight):
            evaluate_general_bound(x_set, st, w=-np.eye(2))


class TestPairMatrices:
    def test_s_u_psd_and_aggregates(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            st = _random_state(rng)
            slds, fisher, _ = sld_analysis(st)
            x_set = canonical_unbiased(st, slds, fisher)
            n = fisher.n
            basis = haar_unitary(st.dim, rng)
            b_sum = np.zeros((n, n), dtype=complex)
            f_sum = np.zeros((n, n), dtype=complex)
            for q in range(st.dim):
                a_u, b_u, f_u = pair_matrices(st, x_set.ops, slds.ops, basis[:, q])
                s_u = np.block([[a_u, b_u], [b_u.conj().T, f_u]])
                w = np.linalg.eigvalsh(linalg.hermitian_part(s_u))
                assert float(np.min(w)) >= -1e-9
                b_sum += b_u
                f_sum += f_u
            assert np.max(np.abs(np.real(b_sum) - np.eye(n))) <= 1e-8
            assert np.max(np.abs(np.real(f_sum) - fisher.f_q)) <= 1e-8


class TestMinimize:
    def test_weak_commutative_reaches_n(self):
        # Full-rank state with commuting structure: the Holevo bound with
        # W = F_Q equals n and the canonical start is already optimal.
        rho = np.diag([0.55, 0.45])
        st = EvaluatedState.from_matrices(rho, [np.diag([0.5, -0.5]), SIGMA1 / 2])
        slds, fisher, _ = sld_analysis(st)
        res = minimize_bound(st, slds, fisher, MinimizeConfig(w=fisher.f_q, max_iters=300))
        assert res.value == pytest.approx(2.0, abs=1e-4)

    def test_canonical_start_below_2n(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            st = _random_state(rng)
            slds, fisher, _ = sld_analysis(st)
            x_set = canonical_unbiased(st, slds, fisher)
            assert holevo_objective(st, x_set.ops, fisher.f_q) <= 2 * fisher.n + 1e-9

    def test_descent_and_feasibility(self):
        rng = np.random.default_rng(107)
        st = _random_state(rng, d=2, n=2)
        slds, fisher, _ = sld_analysis(st)
        res = minimize_bound(
            st, slds, fisher, MinimizeConfig(w=np.eye(2), max_iters=400)
        )
        # best-so-far trace is non-increasing
        diffs = np.diff(np.array(res.trace))
        assert np.max(diffs) <= 1e-12
        traces, unbias = variational.constraint_witnesses(res.ops, st)
        assert np.max(np.abs(traces)) <= 1e-9
        assert np.max(np.abs(unbias)) <= 1e-9
        start = holevo_objective(st, canonical_unbiased(st, slds, fisher).ops, np.eye(2))
        assert res.value <= start + 1e-12

    def test_nagaoka_strategy_above_holevo(self):
        rng = np.random.default_rng(109)
        fam = random_linear_family(2, 2, rng)
        st = evaluate(fam, np.zeros(2))
        slds, fisher, _ = sld_analysis(st)
        res = minimize_bound(
            st, slds, fisher, MinimizeConfig(strategy="nagaoka", max_iters=400)
        )
        # Evaluating both functionals on the Nagaoka optimizer output:
        # the Nagaoka value dominates the Holevo value on the same X.
        holevo_val = holevo_objective(st, res.ops, np.eye(2))
        nagaoka_val = nagaoka_objective(st, res.ops, np.eye(2))
        assert nagaoka_val >= holevo_val - 1e-9
        assert res.value == pytest.approx(nagaoka_val, abs=1e-12)
        # The certified intervals: C_H <= C_N, so the Nagaoka interval sits
        # above the Holevo one.
        holevo = minimize_bound(st, slds, fisher, MinimizeConfig(w=np.eye(2)))
        assert res.converged
        assert holevo.lower <= res.lower <= res.value
        assert res.gap == res.value - res.lower

    def test_zero_weight_refused(self):
        # W = 0 leaves the solver without a scale (its barrier weight is a
        # fraction of h(0) = 0); the general bound still evaluates to 0.
        rng = np.random.default_rng(97)
        st = _random_state(rng, d=2, n=2)
        slds, fisher, _ = sld_analysis(st)
        for strategy in ("holevo", "nagaoka"):
            with pytest.raises(InvalidWeight):
                minimize_bound(st, slds, fisher, MinimizeConfig(strategy, w=np.zeros((2, 2))))
        x_set = canonical_unbiased(st, slds, fisher)
        assert evaluate_general_bound(x_set, st, w=np.zeros((2, 2))) == 0.0

    def test_nagaoka_needs_two_params(self):
        rng = np.random.default_rng(113)
        st = _random_state(rng, d=2, n=3)
        slds, fisher, _ = sld_analysis(st)
        with pytest.raises(InvalidN):
            minimize_bound(st, slds, fisher, MinimizeConfig(strategy="nagaoka"))

    def test_qubit_example_nagaoka_value(self, qubit_state):
        # For the delta = 0 qubit restricted to (x1, x2) the Nagaoka bound
        # is attained at the canonical X with value 1 + 1 + definite
        # commutator norm; optimization must not go below the Holevo
        # minimum Tr[Cov] >= value and stays feasible throughout.
        fam_gens = [SIGMA1 / 2, SIGMA2 / 2]
        st = evaluate(StateFamily.linear(np.eye(2) / 2, fam_gens), np.zeros(2))
        slds, fisher, _ = sld_analysis(st)
        res = minimize_bound(
            st, slds, fisher, MinimizeConfig(strategy="nagaoka", max_iters=600)
        )
        holevo = minimize_bound(
            st, slds, fisher, MinimizeConfig(strategy="holevo", max_iters=600)
        )
        assert res.value >= holevo.value - 1e-9
        # Certified: C_H = 2 here, and the Nagaoka interval holds 1 + 1 + 2.
        assert res.converged and holevo.converged
        assert res.lower >= holevo.lower
        assert res.lower <= 4.0 * (1 + 1e-9) and res.value >= 4.0 * (1 - 1e-9)

    @pytest.mark.parametrize("use_fq", [True, False])
    def test_nagaoka_qubit_closed_form(self, use_fq):
        # For two-parameter qubit families the Nagaoka bound is
        # Tr(W F_Q^-1) + 2 sqrt(det(W F_Q^-1)), and the certified interval
        # must contain it.
        rng = np.random.default_rng(149)
        fams = [StateFamily.linear(np.diag([0.7, 0.3]), [SIGMA1 / 2, SIGMA3 / 2])]
        fams += [random_linear_family(2, 2, rng) for _ in range(3)]
        for fam in fams:
            st = evaluate(fam, np.zeros(2))
            slds, fisher, _ = sld_analysis(st)
            w = fisher.f_q if use_fq else np.eye(2)
            wf = w @ np.linalg.inv(fisher.f_q)
            closed = float(np.trace(wf)) + 2.0 * np.sqrt(np.linalg.det(wf))
            res = minimize_bound(st, slds, fisher, MinimizeConfig(strategy="nagaoka", w=w))
            assert res.converged
            assert res.lower <= closed * (1 + 1e-9)
            assert res.value >= closed * (1 - 1e-9)

    def test_nagaoka_random_families_certified(self):
        rng = np.random.default_rng(151)
        for d in (2, 3, 4, 5):
            for _ in range(3):
                st = _random_state(rng, d=d, n=2)
                slds, fisher, _ = sld_analysis(st)
                for w in (fisher.f_q, np.eye(2)):
                    cfg = MinimizeConfig(strategy="nagaoka", w=w)
                    res = minimize_bound(st, slds, fisher, cfg)
                    assert res.lower <= res.value
                    assert res.gap <= 1e-8 * res.value
                    holevo = minimize_bound(st, slds, fisher, MinimizeConfig(w=w))
                    assert res.lower >= holevo.lower
                    start = nagaoka_objective(st, canonical_unbiased(st, slds, fisher).ops, w)
                    assert res.value <= start * (1 + 1e-12)
                    assert nagaoka_objective(st, res.ops, w) == pytest.approx(
                        res.value, rel=1e-10
                    )
                    traces, unbias = variational.constraint_witnesses(res.ops, st)
                    assert np.max(np.abs(traces)) <= 1e-9
                    assert np.max(np.abs(unbias)) <= 1e-9


class TestHolevoSolver:
    """The certified interval [lower, value] of the Holevo strategy."""

    @staticmethod
    def _solve(st, w=None):
        slds, fisher, _ = sld_analysis(st)
        w = fisher.f_q if w is None else w
        return minimize_bound(st, slds, fisher, MinimizeConfig(w=w)), slds, fisher

    @pytest.mark.parametrize("preset", ["qubit3", "qutrit8"])
    @pytest.mark.parametrize("delta", [0.3, 0.5])
    def test_d_invariant_models_reach_rld_bound(self, preset, delta):
        # Full (D-invariant) models: the Holevo bound is the RLD bound
        # C_R = Tr(W Re F_R^-1) + ||sqrt(W) Im F_R^-1 sqrt(W)||_1.
        fam = build_scenario(parse_scenario(preset, delta=delta))
        st = evaluate(fam, np.zeros(fam.n))
        res, _, fisher = self._solve(st)
        f_rld = compute_rld_fisher(st, compute_rld(st), fisher).f_rld
        f_inv = np.linalg.inv(f_rld)
        sqrt_w = linalg.sqrt_psd(fisher.f_q)
        c_r = float(np.sum(fisher.f_q * np.real(f_inv))) + linalg.trace_norm(
            sqrt_w @ np.imag(f_inv) @ sqrt_w
        )
        assert res.converged
        assert abs(res.lower - c_r) <= 1e-8 * c_r
        assert abs(res.value - c_r) <= 1e-8 * c_r

    def test_random_families_certified(self):
        rng = np.random.default_rng(137)
        for d in range(2, 6):
            for n in range(2, min(5, d * d - 1) + 1):
                st = _random_state(rng, d=d, n=n)
                for use_fq in (True, False):
                    slds, fisher, _ = sld_analysis(st)
                    w = fisher.f_q if use_fq else np.eye(n)
                    res = minimize_bound(st, slds, fisher, MinimizeConfig(w=w))
                    assert res.lower <= res.value
                    assert res.value - res.lower <= 1e-8 * res.value
                    assert res.gap == res.value - res.lower
                    sld_bound = float(np.sum(w * np.linalg.inv(fisher.f_q)))
                    assert res.lower >= sld_bound - 1e-12
                    start = holevo_objective(st, canonical_unbiased(st, slds, fisher).ops, w)
                    assert res.value <= start * (1 + 1e-12)
                    traces, unbias = variational.constraint_witnesses(res.ops, st)
                    assert np.max(np.abs(traces)) <= 1e-9
                    assert np.max(np.abs(unbias)) <= 1e-9
                    assert holevo_objective(st, res.ops, w) == pytest.approx(
                        res.value, rel=1e-10
                    )

    def test_subgradient_regression(self):
        # The former projected subgradient loop stopped at 2.2202 here.
        st = evaluate(random_linear_family(2, 2, np.random.default_rng(5)), np.zeros(2))
        res, _, _ = self._solve(st)
        assert res.converged
        assert res.value <= 2.1074
        assert res.lower <= res.value

    def test_pure_state(self):
        # rho = |0><0| with derivatives sigma_1/2, sigma_2/2: K is singular,
        # its kernel (X sqrt(rho) = 0) is projected out, and C_H = 2n at W = F_Q.
        fam = StateFamily.linear(np.diag([1.0, 0.0]).astype(complex), [SIGMA1 / 2, SIGMA2 / 2])
        res, _, _ = self._solve(evaluate(fam, np.zeros(2)))
        assert res.converged
        assert abs(res.lower - 4.0) <= 1e-9
        assert abs(res.value - 4.0) <= 1e-9

    def test_nearly_singular_state_keeps_interval(self):
        # One eigenvalue of rho at 1e-9 makes F_Q of order 1e9: the rounding
        # allowance of h keeps the interval valid but wider than the tolerance.
        rng = np.random.default_rng(3)
        gens = [random_traceless_hermitian(3, rng) for _ in range(2)]
        st = EvaluatedState.from_matrices(np.diag([0.6, 0.4 - 1e-9, 1e-9]), gens)
        res, _, _ = self._solve(st)
        assert not res.converged
        assert res.lower <= res.value
        assert res.gap <= 1e-5 * res.value
        assert res.iterations < 100
        traces, unbias = variational.constraint_witnesses(res.ops, st)
        assert np.max(np.abs(traces)) <= 1e-9
        assert np.max(np.abs(unbias)) <= 1e-9

    @pytest.mark.parametrize("strategy, n, scale", [("holevo", 3, 0.2), ("nagaoka", 2, 0.1)])
    def test_derivatives_match_finite_differences(self, strategy, n, scale):
        # The Newton ascent reads dh/du and d2h/du2 off the KKT solve and
        # the barrier's derivatives in closed form: over real antisymmetric
        # U for Holevo, over the complex Hermitian basis for Nagaoka.
        rng = np.random.default_rng(139)
        st = _random_state(rng, d=3, n=n)
        _, fisher, _ = sld_analysis(st)
        prob = _problem(st, fisher.f_q, strategy)
        m = len(prob.e)
        u = scale * rng.standard_normal(m)
        pt = prob.point(u)
        barrier = variational._log_det_barrier(prob.lmi, u)
        eps = 1e-6
        for a, step in enumerate(np.eye(m) * eps):
            hi, lo = prob.point(u + step), prob.point(u - step)
            assert (hi.h - lo.h) / (2 * eps) == pytest.approx(pt.grad[a], abs=1e-7)
            assert np.allclose((hi.grad - lo.grad) / (2 * eps), pt.hess[a], atol=1e-7)
            b_hi = variational._log_det_barrier(prob.lmi, u + step)
            b_lo = variational._log_det_barrier(prob.lmi, u - step)
            assert (b_hi.value - b_lo.value) / (2 * eps) == pytest.approx(
                barrier.grad[a], abs=1e-7
            )
            assert np.allclose((b_hi.grad - b_lo.grad) / (2 * eps), barrier.hess[a], atol=1e-7)
        assert variational._log_det_barrier(prob.lmi, np.eye(m)[0]) is None

    @pytest.mark.parametrize("strategy, n", [("holevo", 2), ("holevo", 3), ("holevo", 4),
                                             ("nagaoka", 2)])
    def test_lmi_barrier_is_log_det_of_schur_complement(self, strategy, n):
        # log det [[I, M], [M+, I]] = log det(I - M+ M), computed directly.
        rng = np.random.default_rng(167)
        st = _random_state(rng, d=3, n=n)
        _, fisher, _ = sld_analysis(st)
        prob = _problem(st, fisher.f_q, strategy)
        for norm in (0.3, 0.9, 0.999):
            m_mat, y = _dual_at_norm(prob, rng, norm)
            sign, direct = np.linalg.slogdet(np.eye(len(m_mat)) - m_mat.conj().T @ m_mat)
            assert sign == pytest.approx(1.0, abs=1e-12)
            barrier = variational._log_det_barrier(prob.lmi, y)
            assert barrier.value == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("strategy, n", [("holevo", 3), ("nagaoka", 2)])
    def test_step_to_boundary_matches_bisection(self, strategy, n):
        # t_max = -1/lambda_min of the whitened step is where ||M(y + t s)||
        # first reaches 1; ||M(y + t s)|| is convex in t and starts below 1.
        rng = np.random.default_rng(173)
        st = _random_state(rng, d=3, n=n)
        _, fisher, _ = sld_analysis(st)
        prob = _problem(st, fisher.f_q, strategy)

        def norm(y):
            return np.linalg.norm(np.tensordot(y, prob.e, 1), 2)

        for _ in range(4):
            _, y = _dual_at_norm(prob, rng, 0.6)
            step = rng.standard_normal(len(prob.e))
            t_max = variational._step_to_boundary(variational._log_det_barrier(prob.lmi, y), step)
            lo, hi = 0.0, 1.0
            while norm(y + hi * step) < 1.0:
                hi *= 2.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if norm(y + mid * step) < 1.0 else (lo, mid)
            assert t_max == pytest.approx(lo, rel=1e-10)
        barrier = variational._log_det_barrier(prob.lmi, y)
        assert variational._step_to_boundary(barrier, np.zeros(len(prob.e))) == np.inf

    def test_line_search_stays_inside_on_panel(self, monkeypatch):
        # The dual optimum sits on ||M|| = 1; the line search skips the steps
        # past it, so every barrier it evaluates is at ||M|| < 1.  The panel
        # is the benchmark's 12 random families.
        evaluated = []
        barrier = variational._log_det_barrier

        def recording(lmi, y):
            evaluated.append(np.linalg.norm(np.tensordot(y, lmi, 1), 2))  # = ||M||
            return barrier(lmi, y)

        monkeypatch.setattr(variational, "_log_det_barrier", recording)
        rng = np.random.default_rng(20240901)
        for i in range(12):
            d, n = (2, 3, 4)[i % 3], 2 + (i // 3) % 2
            st = evaluate(random_linear_family(d, n, rng), np.zeros(n))
            slds, fisher, _ = sld_analysis(st)
            res = minimize_bound(st, slds, fisher, MinimizeConfig(w=fisher.f_q))
            assert res.converged
        assert len(evaluated) > 12
        assert max(evaluated) < 1.0

    def test_singular_newton_system_ends_ascent(self, monkeypatch):
        # d = 3, n = 2 leaves free coordinates, so the ascent enters its
        # loop; with the Hessians of h and of the barrier both zeroed, every
        # Newton system is exactly singular.
        st = _random_state(np.random.default_rng(139), d=3, n=2)
        slds, fisher, _ = sld_analysis(st)
        barrier, point = variational._log_det_barrier, variational._MinimaxProblem.point
        monkeypatch.setattr(
            variational,
            "_log_det_barrier",
            lambda lmi, y: barrier(lmi, y)._replace(hess=np.zeros((len(y), len(y)))),
        )
        monkeypatch.setattr(
            variational._MinimaxProblem,
            "point",
            lambda self, y: point(self, y)._replace(hess=np.zeros((len(y), len(y)))),
        )
        res = minimize_bound(st, slds, fisher, MinimizeConfig(w=fisher.f_q))
        assert res.iterations == 1
        assert res.lower <= res.value
        assert res.converged == (res.gap <= variational.MINIMAX_RTOL * res.value)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("use_fq", [True, False])
    def test_closed_form_when_the_unbiased_set_is_one_point(self, d, use_fq):
        # n = d^2 - 1 leaves no free coordinates: X*(y) is the canonical X
        # for every y, h is affine, and its maximum at the polar factor of
        # the dual matrix closes the interval with no Newton step.
        rng = np.random.default_rng(191 + d)
        for _ in range(3):
            st = _random_state(rng, d=d, n=d * d - 1)
            slds, fisher, _ = sld_analysis(st)
            w = fisher.f_q if use_fq else np.eye(st.n)
            res = minimize_bound(st, slds, fisher, MinimizeConfig(w=w))
            assert res.iterations == 0 and res.converged
            assert res.trace == (res.value,)
            canonical = canonical_unbiased(st, slds, fisher).ops
            assert res.value == pytest.approx(holevo_objective(st, canonical, w), rel=1e-12)
            assert res.lower <= res.value
            prob = _problem(st, w, "holevo")
            assert prob.null.shape[1] == 0
            pt = prob.point(np.zeros(len(prob.e)))
            top = variational._affine_top(prob, pt)
            assert np.linalg.norm(np.tensordot(top.y, prob.e, 1), 2) < 1.0
            # h(y*) = h(0) + ||C||_1 / 2, which is f at the one feasible X.
            assert top.h == pytest.approx(pt.f, rel=1e-13)
            assert top.h - top.err <= res.value

    @pytest.mark.parametrize("strategy", ["holevo", "nagaoka"])
    def test_closed_form_on_a_pure_qubit(self, strategy):
        # Here the kernel X sqrt(rho) = 0 takes all the freedom, so both
        # strategies end in the closed form; for Nagaoka the dual matrix is
        # Hermitian and so is its polar factor.  C_H = C_N = 2n at W = F_Q.
        fam = StateFamily.linear(np.diag([1.0, 0.0]).astype(complex), [SIGMA1 / 2, SIGMA2 / 2])
        st = evaluate(fam, np.zeros(2))
        slds, fisher, _ = sld_analysis(st)
        res = minimize_bound(st, slds, fisher, MinimizeConfig(strategy, w=fisher.f_q))
        assert res.iterations == 0 and res.converged
        assert res.lower <= 4.0 * (1 + 1e-12) and res.value >= 4.0 * (1 - 1e-12)

    def test_closed_form_of_a_zero_dual_matrix(self):
        # C = 0: h is constant, and the maximum is taken at y* = 0.
        st = _random_state(np.random.default_rng(197), d=2, n=3)
        _, fisher, _ = sld_analysis(st)
        prob = _problem(st, fisher.f_q, "holevo")
        pt = prob.point(np.zeros(len(prob.e)))
        top = variational._affine_top(prob, pt._replace(grad=np.zeros(len(prob.e))))
        assert np.array_equal(top.y, np.zeros(len(prob.e)))

    def test_pure_steps_close_interior_optima_on_panel(self, monkeypatch):
        # Panel families whose optimum lies inside the ball (||M*|| < 1)
        # converge in a few pure Newton steps on h, where the barrier steps
        # take one per decade of mu; every family still closes its gap.
        norms = []
        point = variational._MinimaxProblem.point

        def recording(self, y):
            norms.append(np.linalg.norm(np.tensordot(y, self.e, 1), 2))
            return point(self, y)

        monkeypatch.setattr(variational._MinimaxProblem, "point", recording)
        rng = np.random.default_rng(20240901)
        interior = []
        for i in range(12):
            d, n = (2, 3, 4)[i % 3], 2 + (i // 3) % 2
            st = evaluate(random_linear_family(d, n, rng), np.zeros(n))
            slds, fisher, _ = sld_analysis(st)
            norms.clear()
            res = minimize_bound(st, slds, fisher, MinimizeConfig(w=fisher.f_q))
            assert res.converged
            assert res.gap <= variational.MINIMAX_RTOL * res.value
            if norms[-1] < 0.9:
                interior.append(i)
                assert res.iterations <= 5
        assert interior == [1, 7, 8]

    def test_setup_products_match_kron(self, monkeypatch):
        # K_0, the null-space basis and the diagonal of K_r0 are Kronecker
        # products formed by broadcasting; each keeps the bits of np.kron.
        calls = []
        kron = variational._kron

        def checked(a, b):
            out, ref = kron(a, b), np.kron(a, b)
            assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
            calls.append(out.shape)
            return out

        monkeypatch.setattr(variational, "_kron", checked)
        rng = np.random.default_rng(199)
        for strategy, d, n, singular in [("holevo", 2, 2, False), ("holevo", 3, 3, True),
                                         ("holevo", 2, 3, False), ("nagaoka", 3, 2, False)]:
            st = _random_state(rng, d=d, n=n)
            _, fisher, _ = sld_analysis(st)
            w = np.diag([1.0] + [0.0] * (n - 1)) if singular else fisher.f_q
            calls.clear()
            prob = _problem(st, w, strategy)
            assert len(calls) == 3
            assert calls[0] == prob.k0.shape and calls[1] == prob.null.shape
            assert calls[2] == (1, len(prob.k_r0))

    @pytest.mark.parametrize(
        "name, strategy, use_fq",
        [("d4_n4", "holevo", True), ("d3_n4", "holevo", False), ("d3_n2", "nagaoka", False)],
    )
    def test_singular_newton_families(self, name, strategy, use_fq):
        # Families of the robustness scan whose Newton system turns singular
        # near ||M|| = 1; the solver used to raise LinAlgError on them.
        fam, x0 = load_family(os.path.join(DATA, f"singular_newton_{name}.json"))
        st = evaluate(fam, x0)
        slds, fisher, _ = sld_analysis(st)
        w = fisher.f_q if use_fq else np.eye(fam.n)
        res = minimize_bound(st, slds, fisher, MinimizeConfig(strategy, w=w))
        assert res.lower <= res.value
        assert res.gap <= 2e-9 * res.value

    def test_singular_newton_family_cli(self, tmp_path):
        path = os.path.join(DATA, "singular_newton_d4_n4.json")
        out = tmp_path / "out.csv"
        argv = ["bounds", "--input", path, "--p", "1", "--bounds", "variational"]
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert "variational" in out.read_text()

    def test_derivatives_empty_null_space(self):
        # d = 2, n = 3: the n + 1 constraints per X_j leave no freedom in
        # d^2 = 4 coordinates, so X*(u) is fixed, h is linear in u and the
        # Hessian is the zero matrix off a 0 x 0 reduced system.
        rng = np.random.default_rng(139)
        st = _random_state(rng, d=2, n=3)
        _, fisher, _ = sld_analysis(st)
        prob = _problem(st, fisher.f_q, "holevo")
        assert prob.null.shape == (prob.nd, 0)
        m = len(prob.e)
        u = 0.2 * rng.standard_normal(m)
        pt = prob.point(u)
        assert pt.counts
        assert pt.hess.shape == (m, m) and not np.any(pt.hess)
        eps = 1e-6
        for a, step in enumerate(np.eye(m) * eps):
            hi, lo = prob.point(u + step), prob.point(u - step)
            assert (hi.h - lo.h) / (2 * eps) == pytest.approx(pt.grad[a], abs=1e-7)
            assert np.allclose(hi.grad, pt.grad, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "case",
        ["holevo-d3-n2", "holevo-d4-n3", "nagaoka-d3-n2", "pure-state", "holevo-d2-n3",
         "holevo-d3-n2-singular", "nagaoka-d3-n2-singular"],
    )
    def test_point_matches_bordered_kkt(self, case):
        # Oracle: the bordered system [[K, A^T], [A, 0]] [x; lam] = [0; b],
        # A = I_n (x) F, solved by least squares.  Its x-block of the inverse
        # applied to D_b x gives the Hessian -2 (D_a x)^T P (D_b x).  The
        # point drops the kernel of W and of rho before it factors K_r, so
        # the cases include a pure state and the singular weight diag(1, 0),
        # at ||M|| up to 1 - 1e-6.
        rng = np.random.default_rng(163)
        case, singular = case.removesuffix("-singular"), case.endswith("-singular")
        if case == "pure-state":
            strategy = "holevo"
            fam = StateFamily.linear(
                np.diag([1.0, 0.0]).astype(complex), [SIGMA1 / 2, SIGMA2 / 2]
            )
            st = evaluate(fam, np.zeros(2))
        else:
            strategy, d, n = case.split("-")
            st = _random_state(rng, d=int(d[1:]), n=int(n[1:]))
        _, fisher, _ = sld_analysis(st)
        prob = _problem(st, np.diag([1.0, 0.0]) if singular else fisher.f_q, strategy)
        n, nd, m = st.n, prob.nd, len(prob.e)
        frame = np.array([st.rho] + list(st.derivs))
        f_mat = np.real(np.einsum("rij,aji->ra", frame, prob.basis))
        a_mat = np.kron(np.eye(n), f_mat)
        zeros = np.zeros((len(a_mat), len(a_mat)))
        rhs = np.concatenate([np.zeros(nd), np.eye(n + 1)[1:].ravel()])
        for norm in (0.6, 0.6, 0.6, 0.99, 1.0 - 1e-6):
            y = rng.standard_normal(m)
            dual = np.tensordot(y, prob.e, 1)
            y *= norm / np.linalg.norm(dual, 2)
            k = prob.k0 - np.tensordot(y, prob.d, 1)
            kkt = np.block([[k, a_mat.T], [a_mat, zeros]])
            x = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:nd]
            dx = prob.d @ x
            border = np.vstack([dx.T, np.zeros((len(a_mat), m))])
            p_dx = np.linalg.lstsq(kkt, border, rcond=None)[0][:nd]
            h, grad, hess = float(x @ k @ x), -(dx @ x), -2.0 * dx @ p_dx
            pt = prob.point(y)
            assert pt.counts
            assert pt.h == pytest.approx(h, rel=1e-12)
            assert np.allclose(pt.x.ravel(), x, rtol=0.0, atol=1e-12 * np.linalg.norm(x))
            assert np.allclose(pt.grad, grad, rtol=0.0, atol=1e-12 * np.linalg.norm(grad))
            scale = max(np.linalg.norm(hess), 1.0)
            assert np.allclose(pt.hess, hess, rtol=0.0, atol=1e-12 * scale)
            ops = np.tensordot(pt.x, prob.basis, 1)
            traces, unbias = variational.constraint_witnesses(ops, st)
            assert np.max(np.abs(traces)) <= 1e-12
            assert np.max(np.abs(unbias)) <= 1e-12

    @pytest.mark.parametrize("strategy, n", [("holevo", 3), ("nagaoka", 2)])
    def test_point_factors_without_eigensolves(self, strategy, n, monkeypatch):
        # Each point factors K_r(y) by Cholesky; the only spectral call left
        # is the SVD of the small dual matrix behind f.
        rng = np.random.default_rng(181)
        st = _random_state(rng, d=4, n=n)
        _, fisher, _ = sld_analysis(st)
        prob = _problem(st, fisher.f_q, strategy)
        _, y = _dual_at_norm(prob, rng, 0.9)
        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            def counted(a, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _f(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        prob.point(y)
        assert calls == [("svd", prob.e.shape[1:])]

    def test_line_search_halves_past_a_failed_factorization(self):
        # A trial whose K_r(y) fails to factor lies outside to working
        # precision, as a None barrier does: the line search halves t.
        st = evaluate(random_linear_family(4, 3, np.random.default_rng(20240901)), np.zeros(3))
        _, fisher, _ = sld_analysis(st)
        prob = _problem(st, fisher.f_q, "holevo")
        pt = prob.point(np.zeros(len(prob.e)))
        barrier = variational._log_det_barrier(prob.lmi, pt.y)
        mu = 0.1 * pt.h / (2 * prob.e.shape[1])
        step, dec, _, _ = variational._newton_step(pt, barrier, mu)
        point = prob.point

        def failing(y):
            if np.array_equal(y, pt.y + step):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return point(y)

        full = variational._line_search(prob, pt, barrier, mu, step, dec)
        assert np.array_equal(full[0].y, pt.y + step)
        prob.point = failing
        half = variational._line_search(prob, pt, barrier, mu, step, dec)
        assert np.array_equal(half[0].y, pt.y + 0.5 * step)

    @pytest.mark.parametrize(
        "name, strategy, use_fq",
        [("d4_n4", "holevo", True), ("d3_n4", "holevo", False), ("d3_n2", "nagaoka", False)],
    )
    def test_failed_factorizations_never_escape(self, name, strategy, use_fq, monkeypatch):
        # Every other point fails to factor, from the first trial step on:
        # the ascent goes on with shorter steps or ends, and its interval
        # still overlaps the one found without failures.
        fam, x0 = load_family(os.path.join(DATA, f"singular_newton_{name}.json"))
        st = evaluate(fam, x0)
        slds, fisher, _ = sld_analysis(st)
        config = MinimizeConfig(strategy, w=fisher.f_q if use_fq else np.eye(fam.n))
        ref = minimize_bound(st, slds, fisher, config)
        point, count = variational._MinimaxProblem.point, [0]

        def failing(self, y):
            count[0] += 1
            if count[0] % 2 == 0:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return point(self, y)

        monkeypatch.setattr(variational._MinimaxProblem, "point", failing)
        res = minimize_bound(st, slds, fisher, config)
        assert count[0] > 2
        assert res.lower <= res.value
        assert res.lower <= ref.value and ref.lower <= res.value

    def test_degenerate_constraints(self):
        # Tr(d_1 rho X) and Tr(d_2 rho X) cannot both be prescribed when the
        # derivatives coincide; the solver refuses the frame.
        good = EvaluatedState.from_matrices(np.eye(2) / 2, [SIGMA1 / 2, SIGMA2 / 2])
        slds, fisher, _ = sld_analysis(good)
        bad = EvaluatedState.from_matrices(np.eye(2) / 2, [SIGMA1 / 2, SIGMA1 / 2])
        with pytest.raises(DegenerateConstraints):
            minimize_bound(bad, slds, fisher)


class TestCovariances:
    def test_cov_u_completeness(self):
        rng = np.random.default_rng(127)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 4))
            st = _random_state(rng, d=d, n=n)
            meas = random_measurement(d, n, rng)
            basis = haar_unitary(d, rng)
            total = np.zeros((n, n))
            for q in range(d):
                total += variational.cov_u_matrix(meas, np.zeros(n), st, basis[:, q])
            cov = variational.cov_matrix(meas, np.zeros(n), st)
            assert np.max(np.abs(total - cov)) <= 1e-9

    def test_cov_u_dominates_a_u(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            st = _random_state(rng, d=d, n=2)
            meas = random_measurement(d, 2, rng)
            x_set = observables_from_measurement(meas, np.zeros(2), st)
            basis = haar_unitary(d, rng)
            for q in range(d):
                cov_u = variational.cov_u_matrix(meas, np.zeros(2), st, basis[:, q])
                a_u = variational.a_u_matrix(st, x_set.ops, basis[:, q])
                w = np.linalg.eigvalsh(linalg.hermitian_part(cov_u - a_u))
                assert float(np.min(w)) >= -1e-9
