from __future__ import annotations

import numpy as np
import pytest

from qmetro import linalg, variational
from qmetro.errors import DegenerateConstraints, InvalidN, InvalidState, InvalidWeight
from qmetro.logderiv import compute_rld, compute_rld_fisher, sld_analysis
from qmetro.random_instances import (
    haar_unitary,
    random_linear_family,
    random_measurement,
    random_traceless_hermitian,
)
from qmetro.scenarios import SIGMA1, SIGMA2, SIGMA3, build_scenario, parse_scenario
from qmetro.states import EvaluatedState, StateFamily, evaluate
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


def _random_state(rng, d=None, n=None):
    d = d or int(rng.integers(2, 5))
    n = n or int(rng.integers(2, 4))
    fam = random_linear_family(d, n, rng)
    return evaluate(fam, np.zeros(n))


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


class TestGeneralBound:
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
        basis = variational.UBasis.from_columns(u)
        v2 = evaluate_general_bound(x_set, st, basis, ["asis"] * 3)
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
        for signs in (["asis", "asis"], ["asis", "transposed"], ["transposed"] * 2):
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
        # the KKT system is solved by least squares, and C_H = 2n at W = F_Q.
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
        prob = variational._MinimaxProblem(st, fisher.f_q, strategy)
        m = len(prob.e)
        u = scale * rng.standard_normal(m)
        pt = prob.point(u)
        barrier = variational._log_det_barrier(prob.e, u)
        eps = 1e-6
        for a, step in enumerate(np.eye(m) * eps):
            hi, lo = prob.point(u + step), prob.point(u - step)
            assert (hi.h - lo.h) / (2 * eps) == pytest.approx(pt.grad[a], abs=1e-7)
            assert np.allclose((hi.grad - lo.grad) / (2 * eps), pt.hess[a], atol=1e-7)
            b_hi = variational._log_det_barrier(prob.e, u + step)
            b_lo = variational._log_det_barrier(prob.e, u - step)
            assert (b_hi[0] - b_lo[0]) / (2 * eps) == pytest.approx(barrier[1][a], abs=1e-7)
            assert np.allclose((b_hi[1] - b_lo[1]) / (2 * eps), barrier[2][a], atol=1e-7)
        assert variational._log_det_barrier(prob.e, np.eye(m)[0]) is None

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
