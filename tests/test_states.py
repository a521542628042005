from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmetro import states
from qmetro.errors import DerivativeFailure, InvalidState, NonHermitian
from qmetro.random_instances import random_linear_family
from qmetro.scenarios import SIGMA1, SIGMA2, SIGMA3, build_scenario, parse_scenario
from qmetro.states import (
    EvaluatedState,
    StateFamily,
    evaluate,
    family_from_dict,
    family_to_dict,
)


class TestEvaluateLinear:
    def test_qubit_maximally_mixed(self, qubit_state):
        st_ = qubit_state(0.0)
        assert np.allclose(st_.rho, np.eye(2) / 2)
        assert np.allclose(st_.eigen.values, [0.5, 0.5])
        assert st_.support_rank == 2

    def test_qutrit_center(self, qutrit_state):
        st_, _ = qutrit_state("qutrit8")
        assert np.allclose(st_.rho, np.eye(3) / 3)
        fam = build_scenario(parse_scenario("qutrit8"))
        for d, g in zip(st_.derivs, fam.generators):
            assert np.allclose(d, g)

    def test_zero_generators(self):
        gens = [np.zeros((2, 2)), np.zeros((2, 2))]
        fam = StateFamily.linear(np.eye(2) / 2, gens)
        st_ = evaluate(fam, [0.3, -0.1])
        assert all(np.allclose(d, 0) for d in st_.derivs)

    def test_linear_exactness(self):
        rng = np.random.default_rng(3)
        fam = random_linear_family(3, 2, rng)
        x0 = np.array([0.02, -0.03])
        st_ = evaluate(fam, x0)
        expected = fam.rho0 + x0[0] * fam.generators[0] + x0[1] * fam.generators[1]
        assert np.array_equal(st_.rho, expected)

    def test_rejects_nonpsd_point(self):
        fam = build_scenario(parse_scenario("qubit3"))
        with pytest.raises(InvalidState):
            evaluate(fam, [1.5, 0.0, 0.0])  # Bloch vector outside the ball

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidState):
            StateFamily.linear(np.eye(2), [SIGMA1, SIGMA2])

    def test_needs_two_parameters(self):
        with pytest.raises(InvalidState):
            StateFamily.linear(np.eye(2) / 2, [SIGMA1 / 2])


class TestStackedValidation:
    """The operators are checked as one stack; each error names the first
    offending index and keeps the exception type of a per-operator check."""

    def test_non_hermitian_generator(self):
        gens = [SIGMA1 / 2, SIGMA2 / 2, np.array([[0.0, 1.0], [0.0, 0.0]]), 1j * np.eye(2)]
        with pytest.raises(NonHermitian, match="generator 2:"):
            StateFamily.linear(np.eye(2) / 2, gens)

    def test_generator_shape(self):
        with pytest.raises(InvalidState, match=r"generator 1 has shape \(3, 3\)"):
            StateFamily.linear(np.eye(2) / 2, [SIGMA1 / 2, np.eye(3), SIGMA2 / 2])

    def test_non_hermitian_derivative(self):
        derivs = [SIGMA1 / 2, SIGMA3 / 2, np.array([[0.0, 1.0], [0.0, 0.0]]), 1j * SIGMA1]
        with pytest.raises(NonHermitian, match="derivative 2:"):
            EvaluatedState.from_matrices(np.eye(2) / 2, derivs)

    def test_derivative_with_trace(self):
        derivs = [SIGMA1 / 2, np.eye(2) * 1e-3, np.eye(2)]
        with pytest.raises(InvalidState, match="derivative 1 has trace 2.000e-03"):
            EvaluatedState.from_matrices(np.eye(2) / 2, derivs)

    def test_fields_stay_tuples_of_matrices(self, qutrit_state):
        st_, _ = qutrit_state("qutrit8")
        fam = build_scenario(parse_scenario("qutrit8"))
        for ops in (fam.generators, st_.derivs):
            assert isinstance(ops, tuple) and len(ops) == 8
            assert all(op.shape == (3, 3) and op.dtype == np.complex128 for op in ops)


class TestOneEigensolve:
    @pytest.mark.parametrize("preset", ["qubit3", "qutrit8", "qutrit:1,2,5"])
    def test_evaluate_solves_rho_once(self, monkeypatch, preset):
        fam = build_scenario(parse_scenario(preset, delta=0.3))
        seen = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            seen.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        st_ = evaluate(fam, np.zeros(fam.n))
        assert seen == [(fam.dim, fam.dim)]
        callable_fam = StateFamily.from_callable(fam.dim, fam.n, fam.rho)
        seen.clear()
        evaluate(callable_fam, np.zeros(fam.n))
        assert seen == [(fam.dim, fam.dim)]
        # the square root read off that eigensystem is the principal root
        assert np.allclose(st_.sqrt_rho @ st_.sqrt_rho, st_.rho, atol=1e-12)


class TestOneHermiticityCheck:
    @pytest.mark.parametrize("asymmetry", [1e-11, 1e-3])
    def test_callable_family_asymmetry_is_non_hermitian(self, asymmetry):
        # evaluate leaves the check to from_matrices, so any asymmetry of
        # rho above HERMITIAN_ATOL is NonHermitian, whatever its size.
        fam = build_scenario(parse_scenario("qubit3"))

        def rho(x):
            out = fam.rho(x).astype(complex)
            out[0, 1] += asymmetry
            return out

        with pytest.raises(NonHermitian, match="atol 1.0e-12"):
            evaluate(StateFamily.from_callable(2, 3, rho), np.zeros(3))


class TestFiniteDifferences:
    def test_matches_linear_generators(self):
        fam = build_scenario(parse_scenario("qubit3", delta=0.2))
        derivs = states.finite_diff_derivs(fam, np.zeros(3), h=1e-4)
        for d, g in zip(derivs, fam.generators):
            assert np.max(np.abs(d - g)) <= 1e-8

    def test_constant_family(self):
        fam = StateFamily.from_callable(2, 2, lambda x: np.eye(2) / 2)
        derivs = states.finite_diff_derivs(fam, np.zeros(2), h=1e-4)
        assert all(np.max(np.abs(d)) <= 1e-12 for d in derivs)

    def test_unitary_rotation_family(self):
        # rho(x) = e^{-i x sigma_3 / 2} rho0 e^{i x sigma_3 / 2}; the
        # analytic derivative at any x is -(i/2)[sigma_3, rho(x)].
        rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])

        def rho(x):
            u = np.diag([np.exp(-1j * x[0] / 2), np.exp(1j * x[0] / 2)])
            return u @ rho0 @ u.conj().T

        fam = StateFamily.from_callable(2, 2, lambda x: rho(x))
        derivs = states.finite_diff_derivs(fam, np.array([0.1, 0.0]), h=1e-5)
        expected = -0.5j * (SIGMA3 @ rho(np.array([0.1])) - rho(np.array([0.1])) @ SIGMA3)
        assert np.max(np.abs(derivs[0] - expected)) <= 1e-7
        assert np.max(np.abs(derivs[1])) <= 1e-7

    def test_bad_step(self):
        fam = build_scenario(parse_scenario("qubit3"))
        with pytest.raises(DerivativeFailure):
            states.finite_diff_derivs(fam, np.zeros(3), h=0.0)

    def test_callable_evaluate_uses_fd(self):
        fam_lin = build_scenario(parse_scenario("qubit3", delta=0.1))
        fam = StateFamily.from_callable(2, 3, fam_lin.rho)
        st_ = evaluate(fam, np.zeros(3))
        for d, g in zip(st_.derivs, fam_lin.generators):
            assert np.max(np.abs(d - g)) <= 1e-8


class TestInvariants:
    @given(st.integers(0, 2**31 - 1))
    def test_derivatives_traceless(self, seed):
        rng = np.random.default_rng(seed)
        fam = random_linear_family(int(rng.integers(2, 5)), 2, rng)
        st_ = evaluate(fam, np.zeros(2))
        for d in st_.derivs:
            assert abs(np.trace(d)) <= 1e-8

    def test_support_rank_invariant_under_relabeling(self):
        rng = np.random.default_rng(5)
        fam = random_linear_family(3, 3, rng)
        st_ = evaluate(fam, np.zeros(3))
        swapped = StateFamily.linear(
            fam.rho0, [fam.generators[2], fam.generators[0], fam.generators[1]]
        )
        assert evaluate(swapped, np.zeros(3)).support_rank == st_.support_rank

    def test_pure_state_support(self):
        ket = np.array([1.0, 0.0])
        rho0 = np.outer(ket, ket)
        fam = StateFamily.linear(rho0, [SIGMA1 / 2, SIGMA2 / 2])
        st_ = evaluate(fam, np.zeros(2))
        assert st_.support_rank == 1
        assert st_.is_pure


class TestJsonRoundtrip:
    def test_roundtrip(self, tmp_path):
        fam = build_scenario(parse_scenario("qutrit:1,2,5"))
        path = tmp_path / "family.json"
        states.save_family(str(path), fam, x0=[0.0, 0.0, 0.0])
        loaded, x0 = states.load_family(str(path))
        assert loaded.dim == 3 and loaded.n == 3
        assert np.allclose(loaded.rho0, fam.rho0)
        for a, b in zip(loaded.generators, fam.generators):
            assert np.allclose(a, b)
        assert np.allclose(x0, 0.0)
        assert loaded.labels == fam.labels

    def test_schema_shape(self):
        fam = build_scenario(parse_scenario("qubit3", delta=0.5))
        doc = family_to_dict(fam)
        assert set(doc) == {"dim", "n", "rho0", "generators", "x0", "labels"}
        # entries are [re, im] pairs in row-major nesting
        assert doc["rho0"][0][0] == [0.75, 0.0]
        assert doc["generators"][1][0][1] == [0.0, -0.5]
        json.dumps(doc)  # serializable

    def test_rejects_inconsistent_dims(self):
        fam = build_scenario(parse_scenario("qubit3"))
        doc = family_to_dict(fam)
        doc["dim"] = 3
        with pytest.raises(InvalidState):
            family_from_dict(doc)

    def test_rejects_missing_fields(self):
        with pytest.raises(InvalidState):
            family_from_dict({"dim": 2})
