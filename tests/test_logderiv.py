from __future__ import annotations

import numpy as np
import pytest

from qmetro.errors import RldUndefined, SingularQfim, UnsupportedDerivative
from qmetro.logderiv import (
    compute_fisher,
    compute_rld,
    compute_rld_fisher,
    compute_sld,
    sld_analysis,
    tilde_fisher_im,
)
from qmetro.random_instances import random_linear_family
from qmetro.scenarios import SIGMA1, SIGMA2, SIGMA3, build_scenario, parse_scenario
from qmetro.states import EvaluatedState, StateFamily, evaluate


class TestSld:
    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.7])
    def test_qubit_example(self, qubit_state, delta):
        st = qubit_state(delta)
        slds = compute_sld(st)
        assert np.allclose(slds.ops[0], SIGMA1, atol=1e-12)
        assert np.allclose(slds.ops[1], SIGMA2, atol=1e-12)
        expected_l3 = np.diag([1.0 / (1 + delta), -1.0 / (1 - delta)])
        assert np.allclose(slds.ops[2], expected_l3, atol=1e-12)

    def test_qutrit_example(self, qutrit_state):
        st, _ = qutrit_state("qutrit8")
        fam = build_scenario(parse_scenario("qutrit8"))
        slds = compute_sld(st)
        for op, g in zip(slds.ops, fam.generators):
            assert np.allclose(op, 3.0 * g, atol=1e-12)

    def test_zero_derivative(self):
        st = EvaluatedState.from_matrices(np.eye(2) / 2, [np.zeros((2, 2))] * 2)
        slds = compute_sld(st)
        assert all(np.allclose(op, 0) for op in slds.ops)

    def test_defining_equation_residual(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            fam = random_linear_family(int(rng.integers(2, 5)), 2, rng)
            st = evaluate(fam, np.zeros(2))
            slds = compute_sld(st)
            for op, drho in zip(slds.ops, st.derivs):
                resid = np.linalg.norm((op @ st.rho + st.rho @ op) / 2 - drho)
                assert resid <= 1e-8

    def test_kernel_weight_rejected(self):
        # A derivative with kernel-kernel weight cannot satisfy the SLD
        # equation; build it directly (not reachable from a valid family).
        rho = np.diag([1.0, 0.0])
        bad = np.array([[0.0, 0.0], [0.0, 0.0]])
        st = EvaluatedState.from_matrices(rho, [bad, bad])
        patched = EvaluatedState(
            rho=st.rho,
            derivs=(np.diag([0.5, -0.5]), bad),
            eigen=st.eigen,
            rank_tol=st.rank_tol,
            sqrt_rho=st.sqrt_rho,
        )
        with pytest.raises(UnsupportedDerivative):
            compute_sld(patched)

    def test_residual_names_first_failing_parameter(self):
        rho = np.diag([1.0, 0.0])
        zero = np.zeros((2, 2))
        st = EvaluatedState.from_matrices(rho, [zero, zero])
        kernel = np.diag([0.0, 1.0])  # weight only in the kernel-kernel block
        patched = EvaluatedState(
            rho=st.rho,
            derivs=(SIGMA1 / 2, kernel, 2.0 * kernel),
            eigen=st.eigen,
            rank_tol=st.rank_tol,
            sqrt_rho=st.sqrt_rho,
        )
        with pytest.raises(UnsupportedDerivative, match="residual 1.000e\\+00 for parameter 1$"):
            compute_sld(patched)


class TestRld:
    def test_qutrit_rld_equals_sld(self, qutrit_state):
        st, _ = qutrit_state("qutrit8")
        fam = build_scenario(parse_scenario("qutrit8"))
        rlds = compute_rld(st)
        for op, g in zip(rlds.ops, fam.generators):
            assert np.allclose(op, 3.0 * g, atol=1e-10)

    def test_diagonal_qubit(self):
        # Oracle: rho^-1 d(rho) by hand for rho = diag(3/4, 1/4), drho = sigma_3/4.
        rho = np.diag([0.75, 0.25])
        st = EvaluatedState.from_matrices(rho, [SIGMA3 / 4, SIGMA1 / 4])
        rlds = compute_rld(st)
        assert np.allclose(rlds.ops[0], np.diag([1.0 / 3.0, -1.0]), atol=1e-12)

    def test_pure_state_undefined(self):
        rho0 = np.diag([1.0, 0.0])
        fam = StateFamily.linear(rho0, [SIGMA1 / 2, SIGMA2 / 2])
        st = evaluate(fam, np.zeros(2))
        with pytest.raises(RldUndefined):
            compute_rld(st)

    def test_range_leak_names_first_derivative(self):
        # rho = diag(1/2, 1/2, 0): sigma_3 on the support stays in range,
        # a coherence with the kernel leaks.
        rho = np.diag([0.5, 0.5, 0.0])
        inside = np.diag([0.5, -0.5, 0.0])
        leak = np.zeros((3, 3))
        leak[0, 2] = leak[2, 0] = 0.5
        st = EvaluatedState.from_matrices(rho, [inside, leak, 2.0 * leak])
        with pytest.raises(RldUndefined, match="derivative 1 leaks outside range"):
            compute_rld(st)


class TestFisher:
    @pytest.mark.parametrize("delta", [0.0, 0.4])
    def test_qubit_qfim(self, qubit_state, delta):
        st = qubit_state(delta)
        slds = compute_sld(st)
        fisher = compute_fisher(st, slds)
        assert np.allclose(
            fisher.f_q, np.diag([1.0, 1.0, 1.0 / (1.0 - delta**2)]), atol=1e-12
        )

    def test_qutrit_qfim(self, qutrit_state):
        st, _ = qutrit_state("qutrit8")
        slds = compute_sld(st)
        fisher = compute_fisher(st, slds)
        assert np.allclose(fisher.f_q, 1.5 * np.eye(8), atol=1e-12)

    def test_commuting_slds_no_imaginary(self):
        rho = np.diag([0.5, 0.3, 0.2])
        g1 = np.diag([0.5, -0.5, 0.0])
        g2 = np.diag([0.0, 0.5, -0.5])
        st = EvaluatedState.from_matrices(rho, [g1, g2])
        fisher = compute_fisher(st, compute_sld(st))
        assert np.max(np.abs(fisher.f_im)) <= 1e-12

    def test_two_route_agreement(self):
        # Oracle: F_Q from the eigenpair sum 2|<a|drho|b>|^2/(la+lb).
        rng = np.random.default_rng(29)
        for _ in range(10):
            fam = random_linear_family(3, 2, rng)
            st = evaluate(fam, np.zeros(2))
            fisher = compute_fisher(st, compute_sld(st))
            lam = st.eigen.values
            v = st.eigen.vectors
            alt = np.zeros((2, 2))
            for j in range(2):
                for k in range(j, 2):
                    dj = v.conj().T @ st.derivs[j] @ v
                    dk = v.conj().T @ st.derivs[k] @ v
                    total = 0.0
                    for a in range(3):
                        for b in range(3):
                            den = lam[a] + lam[b]
                            if den > st.rank_tol:
                                total += 2.0 * np.real(dj[a, b] * np.conj(dk[a, b])) / den
                    alt[j, k] = alt[k, j] = total
            assert np.max(np.abs(alt - fisher.f_q)) <= 1e-8

    def test_psd_combination(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            fam = random_linear_family(int(rng.integers(2, 5)), 3, rng)
            st = evaluate(fam, np.zeros(3))
            fisher = compute_fisher(st, compute_sld(st))
            w = np.linalg.eigvalsh(fisher.f_q + 1j * fisher.f_im)
            assert float(np.min(w)) >= -1e-9
            assert np.max(np.abs(fisher.f_im + fisher.f_im.T)) <= 1e-12

    def test_singular_qfim(self):
        rho = np.diag([0.5, 0.5])
        st = EvaluatedState.from_matrices(rho, [SIGMA1 / 2, SIGMA1 / 2])
        with pytest.raises(SingularQfim):
            compute_fisher(st, compute_sld(st))


class TestRldFisher:
    def test_qutrit_real_part(self, qutrit_state):
        st, _ = qutrit_state("qutrit:1,2,5")
        slds, fisher, _ = sld_analysis(st)
        rlds = compute_rld(st)
        rf = compute_rld_fisher(st, rlds, fisher)
        assert np.allclose(rf.f_rld_re, 1.5 * np.eye(3), atol=1e-10)
        assert np.max(np.abs(rf.f_rld_im)) <= 1e-10

    def test_diagonal_family_real(self):
        rho = np.diag([0.6, 0.4])
        st = EvaluatedState.from_matrices(rho, [np.diag([0.5, -0.5]), SIGMA1 / 2])
        slds, fisher, _ = sld_analysis(st)
        rf = compute_rld_fisher(st, compute_rld(st), fisher)
        assert abs(rf.f_rld[0, 0].imag) <= 1e-12

    def test_rotation_family_brute_force(self):
        # Parameters generated by sigma_1/2, sigma_2/2 rotations on
        # rho = diag(3/4, 1/4); oracle is the direct trace formula with an
        # explicit matrix inverse.
        rho = np.diag([0.75, 0.25])
        derivs = [
            -0.5j * (SIGMA1 @ rho - rho @ SIGMA1),
            -0.5j * (SIGMA2 @ rho - rho @ SIGMA2),
        ]
        st = EvaluatedState.from_matrices(rho, derivs)
        slds, fisher, _ = sld_analysis(st)
        rf = compute_rld_fisher(st, compute_rld(st), fisher)
        rho_inv = np.linalg.inv(rho)
        expected = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            for k in range(2):
                lj = rho_inv @ derivs[j]
                lk = rho_inv @ derivs[k]
                expected[j, k] = np.trace(rho @ lj @ lk.conj().T)
        assert np.max(np.abs(rf.f_rld - expected)) <= 1e-10


class TestReparametrize:
    def test_qubit_tilde(self, qubit_state):
        delta = 0.6
        st = qubit_state(delta)
        slds, fisher, tilde = sld_analysis(st)
        expected = np.diag(
            [np.sqrt((1 - delta) / (1 + delta)), -np.sqrt((1 + delta) / (1 - delta))]
        )
        assert np.allclose(tilde[2], expected, atol=1e-12)

    def test_qutrit_tilde(self, qutrit_state):
        st, _ = qutrit_state("qutrit8")
        fam = build_scenario(parse_scenario("qutrit8"))
        _, _, tilde = sld_analysis(st)
        for op, g in zip(tilde, fam.generators):
            assert np.allclose(op, np.sqrt(6.0) * g, atol=1e-12)

    def test_identity_qfim_fixed_point(self):
        st = EvaluatedState.from_matrices(np.eye(2) / 2, [SIGMA1 / 2, SIGMA2 / 2])
        slds, fisher, tilde = sld_analysis(st)
        assert np.allclose(fisher.f_q, np.eye(2), atol=1e-12)
        for a, b in zip(tilde, slds.ops):
            assert np.allclose(a, b, atol=1e-12)

    def test_tilde_qfim_is_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            fam = random_linear_family(int(rng.integers(2, 5)), 3, rng)
            st = evaluate(fam, np.zeros(3))
            _, _, tilde = sld_analysis(st)
            recomputed = np.zeros((3, 3))
            for j in range(3):
                for k in range(3):
                    recomputed[j, k] = 0.5 * np.real(
                        np.trace(st.rho @ (tilde[j] @ tilde[k] + tilde[k] @ tilde[j]))
                    )
            assert np.max(np.abs(recomputed - np.eye(3))) <= 1e-8

    def test_tilde_fisher_im_values(self, qubit_state):
        st = qubit_state(0.5)
        _, fisher, _ = sld_analysis(st)
        ftil = tilde_fisher_im(fisher)
        # Tr(rho [sigma_1, sigma_2]) = 2i delta; reparametrization leaves
        # the (1,2) block unchanged at F_Q = I there.
        assert ftil[0, 1] == pytest.approx(0.5, abs=1e-12)
