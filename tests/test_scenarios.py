from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from qmetro import scenarios
from qmetro.errors import InvalidSpec, OutOfRange
from qmetro.logderiv import sld_analysis
from qmetro.scenarios import (
    GELL_MANN,
    build_scenario,
    parse_scenario,
    qubit_cp_closed,
    qubit_np,
    qubit_tp_closed,
    qubit_tp_entry,
    qutrit_c1,
    qutrit_cp_closed,
    qutrit_np,
    qutrit_tp_closed,
    trinomial,
)
from qmetro.states import evaluate
from qmetro.tensor import block_sweep, compute_tp_exact


class TestParsing:
    def test_qubit(self):
        spec = parse_scenario("qubit3", delta=0.4)
        assert spec.kind == "qubit3"
        assert spec.label == "qubit3"

    def test_qutrit_full(self):
        spec = parse_scenario("qutrit8")
        assert spec.subset == tuple(range(1, 9))
        assert spec.label == "qutrit8"

    def test_qutrit_subsets(self):
        for text in ("qutrit:1,2", "qutrit:1,2,5", "qutrit:1,2,4,5"):
            spec = parse_scenario(text)
            assert spec.label == text

    def test_bad_presets(self):
        for text in ("qutrit:", "qutrit:0,1", "qutrit:1,1", "qubit2", "qutrit:9,1"):
            with pytest.raises(InvalidSpec):
                parse_scenario(text)

    def test_delta_domain(self):
        with pytest.raises(InvalidSpec):
            parse_scenario("qubit3", delta=1.0)

    def test_spec_validated_once_when_built(self, monkeypatch):
        calls = []
        inner = scenarios.ScenarioSpec.validate

        def counting(spec):
            calls.append(spec)
            return inner(spec)

        monkeypatch.setattr(scenarios.ScenarioSpec, "validate", counting)
        spec = parse_scenario("qutrit:1,2,5", delta=0.1)
        build_scenario(spec)
        assert calls == [spec]
        # a spec built by hand, or changed, is refused as it is built
        for kind, delta, subset in (("qubit3", 1.0, ()), ("qutrit", 0.1, (1,)), ("qubit2", 0.0, ())):
            with pytest.raises(InvalidSpec):
                scenarios.ScenarioSpec(kind, delta, subset)
        with pytest.raises(InvalidSpec):
            dataclasses.replace(spec, delta=0.7)


class TestBuild:
    def test_qubit_center(self):
        fam = build_scenario(parse_scenario("qubit3"))
        st = evaluate(fam, np.zeros(3))
        assert np.allclose(st.rho, np.eye(2) / 2)

    def test_qubit_offset(self):
        fam = build_scenario(parse_scenario("qubit3", delta=0.5))
        assert np.allclose(fam.rho0, np.diag([0.75, 0.25]))

    def test_qutrit_full_qfim(self):
        fam = build_scenario(parse_scenario("qutrit8"))
        st = evaluate(fam, np.zeros(8))
        _, fisher, _ = sld_analysis(st)
        assert np.allclose(fisher.f_q, 1.5 * np.eye(8), atol=1e-12)

    def test_qutrit_subset_size(self):
        fam = build_scenario(parse_scenario("qutrit:1,2"))
        assert fam.n == 2 and fam.dim == 3

    def test_qutrit_offset_state(self):
        fam = build_scenario(parse_scenario("qutrit:1,2,5"))
        spec = scenarios.ScenarioSpec(kind="qutrit", delta=0.3, subset=(1, 2, 5))
        fam_d = build_scenario(spec)
        assert np.allclose(
            fam_d.rho0, np.eye(3) / 3 + 0.3 * 0.5 * GELL_MANN[2]
        )
        assert fam.n == fam_d.n

    def test_gell_mann_algebra(self):
        for lam in GELL_MANN:
            assert abs(np.trace(lam)) <= 1e-12
            assert np.allclose(lam, lam.conj().T)
        # orthogonality Tr(L_j L_k) = 2 delta_jk
        for j in range(8):
            for k in range(8):
                expected = 2.0 if j == k else 0.0
                assert np.trace(GELL_MANN[j] @ GELL_MANN[k]) == pytest.approx(
                    expected, abs=1e-12
                )


class TestPresetCache:
    """Each preset's generators are built and checked once per process;
    a call forms only rho0(delta), by the same formula as before."""

    DELTAS = (0.0, 0.1, 0.3, -0.2)

    @staticmethod
    def _rho0(preset, delta):
        if preset == "qubit3":
            return 0.5 * (np.eye(2, dtype=np.complex128) + delta * scenarios.SIGMA3)
        return np.eye(3, dtype=np.complex128) / 3.0 + delta * (0.5 * GELL_MANN[2])

    @staticmethod
    def _generators(preset):
        if preset == "qubit3":
            return [0.5 * s for s in scenarios.PAULI]
        return [0.5 * GELL_MANN[j - 1] for j in parse_scenario(preset).subset]

    @pytest.mark.parametrize("preset", ["qubit3", "qutrit8", "qutrit:1,2,5"])
    def test_rho0_and_generators(self, preset):
        families = [build_scenario(parse_scenario(preset, delta=d)) for d in self.DELTAS]
        for delta, fam in zip(self.DELTAS, families):
            assert np.array_equal(fam.rho0, self._rho0(preset, delta))
            assert fam.rho0.dtype == np.complex128
            gens = self._generators(preset)
            assert len(fam.generators) == len(gens) == fam.n
            assert all(np.array_equal(a, b) for a, b in zip(fam.generators, gens))
            assert fam.labels == families[0].labels
        # one checked stack serves every delta, and it cannot be written
        assert all(fam.deriv_stack is families[0].deriv_stack for fam in families)
        assert all(fam.generators is families[0].generators for fam in families)
        assert not families[0].deriv_stack.flags.writeable
        with pytest.raises(ValueError):
            families[0].generators[0][0, 0] = 1.0

    @pytest.mark.parametrize("preset, delta", [
        ("qubit3", 1.0), ("qubit3", -1.5), ("qutrit8", 2.0 / 3.0), ("qutrit:1,2,5", -0.7),
    ])
    def test_out_of_range_delta(self, preset, delta):
        build_scenario(parse_scenario(preset))  # cached already
        with pytest.raises(InvalidSpec):
            build_scenario(parse_scenario(preset, delta=delta))
        spec = parse_scenario(preset)
        with pytest.raises(InvalidSpec):
            build_scenario(scenarios.ScenarioSpec(spec.kind, delta, spec.subset))


class TestQubitClosedForms:
    @pytest.mark.parametrize(
        "p,expected",
        [(1, Fraction(1)), (2, Fraction(1)), (3, Fraction(3, 2)), (4, Fraction(3, 2))],
    )
    def test_np_values(self, p, expected):
        # p = 3 oracle: eigenvalues of the 3-site sigma_3 sum are
        # -3,-1,-1,-1,1,1,1,3 -> ||.||_1 = 12, and 12/8 = 3/2.
        assert qubit_np(p) == pytest.approx(float(expected), abs=1e-15)

    def test_np_against_dense_eigenvalues(self):
        for p in (2, 3, 4, 5):
            big = np.zeros((2**p, 2**p), dtype=complex)
            for r in range(p):
                big += np.kron(
                    np.kron(np.eye(2**r), scenarios.SIGMA3), np.eye(2 ** (p - r - 1))
                )
            tn = float(np.sum(np.abs(np.linalg.eigvalsh(big))))
            assert qubit_np(p) == pytest.approx(tn / 2**p, abs=1e-12)

    def test_np_over_p_decreases(self):
        vals = [qubit_np(p) / p for p in range(1, 40)]
        assert all(vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1))
        assert vals[-1] < 0.15  # heads toward 0

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
    def test_closed_cp_matches_dense(self, p):
        fam = build_scenario(parse_scenario("qubit3"))
        st = evaluate(fam, np.zeros(3))
        _, _, tilde = sld_analysis(st)
        dense = block_sweep(st, tilde, [p], cp=True)[p].cp
        closed = qubit_cp_closed(p)
        assert np.max(np.abs(dense.entries - closed.entries)) <= 1e-8

    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_closed_tp_matches_exact(self, delta, p):
        fam = build_scenario(parse_scenario("qubit3", delta=delta))
        st = evaluate(fam, np.zeros(3))
        _, _, tilde = sld_analysis(st)
        exact = compute_tp_exact(st, tilde, p)
        closed = qubit_tp_closed(p, delta)
        assert np.max(np.abs(exact.entries - closed.entries)) <= 1e-10

    def test_tp_entry_formula(self):
        # direct expansion at p = 2: (1/4)[(1-d)^2*2 + 0 + (1+d)^2*2]/2... via
        # the printed sum; spot value at delta = 0.5 computed by hand:
        # 2^-2 [C(2,0)(0.5)^2*2 + C(2,1)(1.5)(0.5)*0 + C(2,2)(1.5)^2*2] = 1.25
        assert qubit_tp_entry(2, 0.5) == pytest.approx(1.25, abs=1e-12)


class TestTrinomial:
    def test_row_one(self):
        assert [trinomial(1, s) for s in (-1, 0, 1)] == [1, 1, 1]

    def test_row_two(self):
        # (1+x+x^2)^2 = 1 + 2x + 3x^2 + 2x^3 + x^4
        assert [trinomial(2, s) for s in (-2, -1, 0, 1, 2)] == [1, 2, 3, 2, 1]

    def test_symmetry(self):
        for p in range(1, 8):
            for s in range(p + 1):
                assert trinomial(p, s) == trinomial(p, -s)

    def test_against_polynomial_expansion(self):
        # Oracle: multiply out (1 + x + x^2)^p coefficient lists.
        coeffs = np.array([1.0])
        base = np.array([1.0, 1.0, 1.0])
        for p in range(1, 7):
            coeffs = np.convolve(coeffs, base)
            for s in range(-p, p + 1):
                assert trinomial(p, s) == pytest.approx(coeffs[p + s], abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            trinomial(2, 3)

    def test_np_values(self):
        assert qutrit_np(1) == 1
        assert qutrit_np(2) == 4  # 1*2 + 2*1
        assert qutrit_np(3) == 15  # 6 + 2*3 + 3*1

    def test_multiplicities_match_dense(self):
        # Eigenvalues of sum_r [G_j, G_k]^(r) are lambda*s with
        # multiplicity trinomial(p, s); checked densely for p <= 5.
        g1 = 0.5 * GELL_MANN[0]
        g2 = 0.5 * GELL_MANN[1]
        comm = g1 @ g2 - g2 @ g1
        lam = float(np.max(np.linalg.eigvalsh(-1j * comm)))
        for p in (2, 3, 5):
            big = np.zeros((3**p, 3**p), dtype=complex)
            for r in range(p):
                big += np.kron(np.kron(np.eye(3**r), comm), np.eye(3 ** (p - r - 1)))
            w = np.linalg.eigvalsh(-1j * big)
            for s in range(-p, p + 1):
                count = int(np.sum(np.abs(w - lam * s) < 1e-9 * max(1, abs(s))))
                if s == 0:
                    count = int(np.sum(np.abs(w) < 1e-12))
                assert count == trinomial(p, s)


class TestQutritClosedForms:
    def test_c1_full_matches_paper_table(self):
        spec = parse_scenario("qutrit8")
        c1 = qutrit_c1(spec)
        assert c1[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert c1[0, 3] == pytest.approx(0.5, abs=1e-12)
        assert c1[0, 7] == pytest.approx(0.0, abs=1e-12)
        assert c1[3, 7] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
        assert np.sum(c1**2) == pytest.approx(24.0, abs=1e-10)

    @pytest.mark.parametrize("preset", ["qutrit8", "qutrit:1,2,5", "qutrit:1,2"])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_closed_cp_matches_dense(self, preset, p):
        spec = parse_scenario(preset)
        fam = build_scenario(spec)
        st = evaluate(fam, np.zeros(fam.n))
        _, _, tilde = sld_analysis(st)
        dense = block_sweep(st, tilde, [p], cp=True)[p].cp
        closed = qutrit_cp_closed(spec, p)
        assert np.max(np.abs(dense.entries - closed.entries)) <= 1e-8

    def test_closed_cp_matches_dense_at_cap(self):
        # deepest dense point of the qutrit family: p = 6, dim 729
        spec = parse_scenario("qutrit:1,2")
        fam = build_scenario(spec)
        st = evaluate(fam, np.zeros(2))
        _, _, tilde = sld_analysis(st)
        dense = block_sweep(st, tilde, [6], cp=True)[6].cp
        closed = qutrit_cp_closed(spec, 6)
        assert np.max(np.abs(dense.entries - closed.entries)) <= 1e-8

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_closed_tp_matches_exact(self, p):
        spec = parse_scenario("qutrit:1,2,5")
        fam = build_scenario(spec)
        st = evaluate(fam, np.zeros(3))
        _, _, tilde = sld_analysis(st)
        exact = compute_tp_exact(st, tilde, p)
        closed = qutrit_tp_closed(spec, p)
        assert np.max(np.abs(exact.entries - closed.entries)) <= 1e-10

    def test_closed_form_requires_delta_zero(self):
        spec = scenarios.ScenarioSpec(kind="qutrit", delta=0.1, subset=(1, 2))
        with pytest.raises(InvalidSpec):
            qutrit_cp_closed(spec, 2)

    def test_trace_norm_scaling_identity(self):
        # (C_p)_jk / (C_1)_jk = N_p / 3^(p-1) for every nonzero pair.
        spec = parse_scenario("qutrit:1,2,4,5")
        c1 = qutrit_c1(spec)
        for p in (2, 3):
            cp = qutrit_cp_closed(spec, p).entries
            mask = c1 > 0
            ratios = cp[mask] / c1[mask]
            expected = qutrit_np(p) / 3 ** (p - 1)
            assert np.allclose(ratios, expected, atol=1e-12)
