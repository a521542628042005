from __future__ import annotations

import numpy as np
import pytest

from qmetro import bounds as gb
from qmetro import linalg
from qmetro.errors import InvalidN, InvalidWeight, KindMismatch, NotPure, RldUndefined
from qmetro.logderiv import (
    FisherData,
    compute_rld,
    compute_rld_fisher,
    reparametrize,
    sld_analysis,
    tilde_fisher_im,
)
from qmetro.random_instances import random_linear_family
from qmetro.scenarios import SIGMA1, SIGMA2
from qmetro.states import EvaluatedState, evaluate
from qmetro.tensor import (
    OptimizeNorm,
    block_sweep,
    compute_fbar_im,
    compute_tp_exact,
)


def cp_at(st, ops, p):
    """C_p alone: the block walk over the one-element list [p]."""
    return block_sweep(st, ops, [p], cp=True)[p].cp


def cp_rld_at(st, rld_ops, p):
    """C_p^RLD of the tilde RLDs ``rld_ops`` alone, from the walk over [p]."""
    return block_sweep(st, rld_ops, [p], rld_ops=rld_ops)[p].cp_rld


class TestFofN:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, 0.25), (3, 0.25), (4, 2.0 / 9.0), (5, 0.2), (7, 0.2), (100, 0.2)],
    )
    def test_values(self, n, expected):
        assert gb.f_of_n(n) == pytest.approx(expected, abs=1e-15)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidN):
            gb.f_of_n(1)


class TestPureStateBound:
    def test_no_incompatibility_gives_n(self):
        fisher = FisherData(f_q=np.eye(3), f_im=np.zeros((3, 3)))
        ket = np.array([1.0, 0.0])
        st = EvaluatedState.from_matrices(np.outer(ket, ket), [SIGMA1 / 2, SIGMA2 / 2])
        assert gb.pure_state_bound(st, fisher) == pytest.approx(3.0, abs=1e-12)

    def test_two_parameter_rotation_family(self):
        # |psi(x)> = exp(-i(x1 s1 + x2 s2)/2)|0>; at x = 0 the derivatives
        # are -sigma_2/2 and sigma_1/2.  Oracle: SLDs of a pure state are
        # 2 d(rho), so F and F_Im follow from direct inner products.
        ket = np.array([1.0, 0.0])
        rho = np.outer(ket, ket)
        derivs = [-SIGMA2 / 2, SIGMA1 / 2]
        st = EvaluatedState.from_matrices(rho, derivs)
        slds, fisher, _ = sld_analysis(st)
        for op, drho in zip(slds.ops, derivs):
            assert np.allclose(op, 2 * drho, atol=1e-12)
        l_ops = [2 * d for d in derivs]
        f_direct = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            for k in range(2):
                f_direct[j, k] = np.trace(rho @ l_ops[j] @ l_ops[k])
        assert np.allclose(fisher.f_q, np.real(f_direct), atol=1e-12)
        assert np.allclose(fisher.f_im, np.imag(f_direct), atol=1e-12)
        # f(2) = 1/4, ||F~_Im||_F^2 = 2 -> bound = 2 - 1/2
        assert gb.pure_state_bound(st, fisher) == pytest.approx(1.5, abs=1e-12)

    def test_degenerate_floor(self):
        # n = 5 with all off-diagonal +-1: 5 - (1/5) * 20 = 1.
        f_im = np.triu(np.ones((5, 5)), 1)
        f_im = f_im - f_im.T
        fisher = FisherData(f_q=np.eye(5), f_im=f_im)
        ket = np.array([1.0, 0.0])
        st = EvaluatedState.from_matrices(np.outer(ket, ket), [SIGMA1 / 2, SIGMA2 / 2])
        assert gb.pure_state_bound(st, fisher) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_mixed(self, qubit_state):
        st = qubit_state(0.0)
        _, fisher, _ = sld_analysis(st)
        with pytest.raises(NotPure):
            gb.pure_state_bound(st, fisher)


class TestCpTpBounds:
    def test_qubit_c1(self, qubit_state):
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, 1)
        assert gb.cp_bound(cp, 3) == pytest.approx(9 / 4, abs=1e-12)

    def test_qubit_c2_formula(self, qubit_state):
        delta = 0.7
        st = qubit_state(delta)
        _, _, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, 2)
        expected = 45 / 16 - delta**2 / 4 - delta**4 / 16
        assert gb.cp_bound(cp, 3) == pytest.approx(expected, abs=1e-10)

    def test_qutrit_full_c1(self, qutrit_state):
        st, spec = qutrit_state("qutrit8")
        _, _, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, 1)
        assert gb.cp_bound(cp, 8) == pytest.approx(50 / 7, abs=1e-10)

    def test_kind_mismatch(self, qubit_state):
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        tp = compute_tp_exact(st, tilde, 1)
        with pytest.raises(KindMismatch):
            gb.cp_bound(tp, 3)
        cp = cp_at(st, tilde, 1)
        with pytest.raises(KindMismatch):
            gb.tp_bound(cp, 3)

    def test_bound_ordering_in_p(self, qubit_state):
        st = qubit_state(0.5)
        _, _, tilde = sld_analysis(st)
        prev_cp = None
        for p in range(1, 7):
            cp = gb.cp_bound(cp_at(st, tilde, p), 3)
            tp = gb.tp_bound(compute_tp_exact(st, tilde, p), 3)
            assert tp >= cp - 1e-9
            if prev_cp is not None:
                assert cp >= prev_cp - 1e-9
            prev_cp = cp


class TestFbarBound:
    def test_qubit_p1(self, qubit_state):
        st = qubit_state(0.6)
        _, _, tilde = sld_analysis(st)
        fb = compute_fbar_im(st, tilde, 1, None, [1, -1])
        assert gb.fbar_bound(fb, 3) == pytest.approx(2.5, abs=1e-12)

    def test_qubit_p2(self, qubit_state):
        delta = 0.25
        st = qubit_state(delta)
        _, _, tilde = sld_analysis(st)
        fb = compute_fbar_im(st, tilde, 2, None, OptimizeNorm())
        expected = 3 - (1 + delta**2) ** 2 / 8
        assert gb.fbar_bound(fb, 3) == pytest.approx(expected, abs=1e-10)

    def test_untilded_collective_equivalent(self, qubit_state):
        # For one sign choice F-bar_Im is linear in the operators, so the
        # raw-SLD aggregate sandwiched with F_Q^(-1/2) is the tilde one:
        # the tilde frame alone gives every F-bar bound.
        st = qubit_state(0.5)
        slds, fisher, tilde = sld_analysis(st)
        basis = np.eye(4)
        fb_til = compute_fbar_im(st, tilde, 2, basis, OptimizeNorm())
        signs = list(fb_til.meta["signs"])
        fb_raw = compute_fbar_im(st, slds.ops, 2, basis, signs)
        s = fisher.inv_sqrt
        assert np.allclose(s @ fb_raw.entries @ s, fb_til.entries, rtol=0, atol=1e-12)
        expected = 3 - (1 + 0.5**2) ** 2 / 8  # the qubit p = 2 value of test_qubit_p2
        assert gb.fbar_bound(fb_til, 3) == pytest.approx(expected, abs=1e-10)

    def test_coefficient_override(self, qutrit_state):
        st, _ = qutrit_state("qutrit8")
        _, _, tilde = sld_analysis(st)
        fb = compute_fbar_im(st, tilde, 1, None, OptimizeNorm())
        val = gb.fbar_bound(fb, 8, f_coeff=6.0 / 49.0)
        assert val == pytest.approx(8 - 24 / 49, abs=1e-10)
        # default coefficient is the (tighter) max, here 1/5
        assert gb.fbar_bound(fb, 8) == pytest.approx(8 - 4 / 5, abs=1e-10)


class TestRldBounds:
    def test_classical_family_gives_n(self):
        rho = np.diag([0.5, 0.3, 0.2])
        g1 = np.diag([0.5, -0.5, 0.0])
        g2 = np.diag([0.0, 0.5, -0.5])
        st = EvaluatedState.from_matrices(rho, [g1, g2])
        slds, fisher, _ = sld_analysis(st)
        rf = compute_rld_fisher(st, compute_rld(st), fisher)
        assert gb.rld_standard_bound(rf) == pytest.approx(2.0, abs=1e-10)

    def test_qutrit_rld_equals_sld_route(self, qutrit_state):
        st, _ = qutrit_state("qutrit:1,2")
        slds, fisher, tilde = sld_analysis(st)
        rlds = compute_rld(st)
        rf = compute_rld_fisher(st, rlds, fisher)
        assert gb.rld_standard_bound(rf) == pytest.approx(2.0, abs=1e-10)
        rt = reparametrize(rlds, rf)
        c1 = cp_rld_at(st, rt, 1)
        assert gb.rld_cp_bound(c1, rf, 2) == pytest.approx(1.5, abs=1e-10)

    def test_rotation_family_brute_force(self):
        # Oracle: assemble the bound from explicit inverses and an SVD.
        rho = np.diag([0.75, 0.25])
        derivs = [
            -0.5j * (SIGMA1 @ rho - rho @ SIGMA1),
            -0.5j * (SIGMA2 @ rho - rho @ SIGMA2),
        ]
        st = EvaluatedState.from_matrices(rho, derivs)
        slds, fisher, _ = sld_analysis(st)
        rf = compute_rld_fisher(st, compute_rld(st), fisher)
        rho_inv = np.linalg.inv(rho)
        f_rld = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            for k in range(2):
                f_rld[j, k] = np.trace(
                    rho @ (rho_inv @ derivs[j]) @ (rho_inv @ derivs[k]).conj().T
                )
        fq_inv_sqrt = np.diag(1.0 / np.sqrt(np.diag(fisher.f_q)))
        sandwich = fq_inv_sqrt @ np.imag(f_rld) @ fq_inv_sqrt
        expected = float(
            np.trace(np.linalg.inv(fisher.f_q) @ np.real(f_rld))
        ) - float(np.sum(np.linalg.svd(sandwich, compute_uv=False)))
        assert gb.rld_standard_bound(rf) == pytest.approx(expected, abs=1e-10)

    def test_clipped_bound_value(self):
        # With the clipped entry at 2p the bound is Tr - (1/4) * 2 * (2p/p)^2.
        eps = 0.1
        rho = np.diag([1 - eps, eps])
        st = EvaluatedState.from_matrices(rho, [SIGMA1 / 2, SIGMA2 / 2])
        slds, fisher, _ = sld_analysis(st)
        rlds = compute_rld(st)
        rf = compute_rld_fisher(st, rlds, fisher)
        rt = reparametrize(rlds, rf)
        c1 = cp_rld_at(st, rt, 1)
        a = 1.0 / (4 * eps * (1 - eps))
        expected = 2 * a - 0.25 * 2 * 4.0
        assert gb.rld_cp_bound(c1, rf, 2) == pytest.approx(expected, abs=1e-10)

    def test_missing_rld_raises(self, qubit_state):
        st = qubit_state(0.0)
        _, fisher, _ = sld_analysis(st)
        with pytest.raises(RldUndefined):
            gb.rld_standard_bound(fisher)


class TestGammaInfLower:
    def test_commuting(self):
        fisher = FisherData(f_q=np.eye(3), f_im=np.zeros((3, 3)))
        assert gb.gamma_inf_lower(fisher, 3) == pytest.approx(3.0, abs=1e-12)

    def test_qubit_delta_zero(self, qubit_state):
        st = qubit_state(0.0)
        _, fisher, _ = sld_analysis(st)
        assert gb.gamma_inf_lower(fisher, 3) == pytest.approx(3.0, abs=1e-12)

    def test_synthetic(self):
        f_im = np.array([[0.0, 1.0], [-1.0, 0.0]])
        fisher = FisherData(f_q=np.eye(2), f_im=f_im)
        # ||F~_Im||_1 = 2 -> 4 / (2 + 2) = 1
        assert gb.gamma_inf_lower(fisher, 2) == pytest.approx(1.0, abs=1e-12)

    def test_sandwich_against_upper(self, qubit_state):
        for delta in (0.0, 0.4, 0.8):
            st = qubit_state(delta)
            _, fisher, _ = sld_analysis(st)
            lo = gb.gamma_inf_lower(fisher, 3)
            hi = gb.gamma_inf_upper(fisher, 3)
            assert lo <= hi + 1e-9


class TestGammaInfLowerDirect:
    """gamma_inf_lower reads ||F~_Im||_1 off one eigvalsh of i F~_Im."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_trace_norm(self, seed):
        rng = np.random.default_rng(4100 + seed)
        for d in range(2, 6):
            for n in range(2, min(5, d * d - 1) + 1):
                st = evaluate(random_linear_family(d, n, rng), np.zeros(n))
                _, fisher, _ = sld_analysis(st)
                ref = n * n / (n + linalg.trace_norm(tilde_fisher_im(fisher)))
                assert gb.gamma_inf_lower(fisher, n) == pytest.approx(ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exactly_n_without_commutator(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        fisher = FisherData(f_q=a @ a.T + n * np.eye(n), f_im=np.zeros((n, n)))
        assert gb.gamma_inf_lower(fisher, n) == n

    def test_tilde_formed_once(self, qubit_state):
        _, fisher, _ = sld_analysis(qubit_state(0.4))
        ftil = tilde_fisher_im(fisher)
        assert tilde_fisher_im(fisher) is ftil and not ftil.flags.writeable


class TestCsTransforms:
    def test_saturated_case(self, qubit_state):
        st = qubit_state(0.0)
        _, fisher, _ = sld_analysis(st)
        out = gb.cs_transforms(3.0, fisher, fisher.f_q, 3)
        assert out.fq_cov_lower == pytest.approx(3.0, abs=1e-12)
        assert out.w_cov_lower == pytest.approx(3.0, abs=1e-12)

    def test_qubit_c1_transform(self, qubit_state):
        st = qubit_state(0.0)
        _, fisher, _ = sld_analysis(st)
        out = gb.cs_transforms(9 / 4, fisher, fisher.f_q, 3)
        assert out.fq_cov_lower == pytest.approx(4.0, abs=1e-12)

    def test_weighted_identity(self, qubit_state):
        delta = 0.5
        st = qubit_state(delta)
        _, fisher, _ = sld_analysis(st)
        gamma = 9 / 4
        out = gb.cs_transforms(gamma, fisher, np.eye(3), 3)
        # F_Q = diag(1, 1, 4/3): Tr sqrt(F_Q^-1) = 2 + sqrt(3)/2.
        expected = (2 + np.sqrt(3.0) / 2) ** 2 / gamma
        assert out.w_cov_lower == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_weight(self, qubit_state):
        st = qubit_state(0.0)
        _, fisher, _ = sld_analysis(st)
        with pytest.raises(InvalidWeight):
            gb.cs_transforms(2.0, fisher, -np.eye(3), 3)

    def test_fq_weight_at_least_n(self, qubit_state):
        rng = np.random.default_rng(47)
        for _ in range(10):
            fam = random_linear_family(3, 2, rng)
            st = evaluate(fam, np.zeros(2))
            _, fisher, tilde = sld_analysis(st)
            cp = cp_at(st, tilde, 1)
            gamma = gb.cp_bound(cp, 2)
            out = gb.cs_transforms(gamma, fisher, fisher.f_q, 2)
            assert out.fq_cov_lower >= 2.0 - 1e-12


class TestReferenceBounds:
    def test_qubit_constants(self):
        refs = gb.reference_bounds(2, 3)
        assert refs.gill_massar == 1.0
        assert refs.zhu_hayashi == 1.5
        assert refs.gill_massar_nontrivial and refs.zhu_hayashi_nontrivial

    def test_qutrit_two_params(self):
        refs = gb.reference_bounds(3, 2)
        assert refs.gill_massar == 2.0
        assert not refs.gill_massar_nontrivial  # our 3/2 beats it

    def test_dim_four(self):
        refs = gb.reference_bounds(4, 2)
        assert refs.gill_massar == 3.0
        assert refs.zhu_hayashi == 4.5


class TestSaturation:
    def test_classical(self):
        rho = np.diag([0.5, 0.3, 0.2])
        st = EvaluatedState.from_matrices(
            rho, [np.diag([0.5, -0.5, 0.0]), np.diag([0.0, 0.5, -0.5])]
        )
        _, fisher, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, 1)
        flags = gb.saturation_check(cp, tilde_fisher_im(fisher))
        assert flags.partial_commutative and flags.weak_commutative

    def test_qubit_delta_zero(self, qubit_state):
        st = qubit_state(0.0)
        _, fisher, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, 1)
        flags = gb.saturation_check(cp, tilde_fisher_im(fisher))
        assert not flags.partial_commutative
        assert flags.weak_commutative

    def test_qubit_delta_half(self, qubit_state):
        st = qubit_state(0.5)
        _, fisher, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, 1)
        flags = gb.saturation_check(cp, tilde_fisher_im(fisher))
        assert not flags.partial_commutative
        assert not flags.weak_commutative


class TestReportStructures:
    def test_upper_cap_validation(self):
        entries = (
            gb.BoundEntry("cp", 2.0, "upper", 1),
            gb.BoundEntry("rld", 2.6, "upper", 1),
        )
        report = gb.BoundReport(n=2, entries=entries)
        report.validate()  # rld may exceed n; cp may not
        bad = gb.BoundReport(n=2, entries=(gb.BoundEntry("cp", 2.5, "upper", 1),))
        with pytest.raises(KindMismatch):
            bad.validate()
