from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qmetro import linalg
from qmetro.errors import (
    DimensionOverflow,
    DimMismatch,
    NonHermitian,
    NotPsd,
    SingularWhenFullRankRequired,
)
from qmetro.random_instances import haar_unitary
from qmetro.scenarios import SIGMA1, SIGMA2, SIGMA3


def complex_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def hermitian_strategy(max_dim: int = 6):
    def build(dim):
        return hnp.arrays(
            np.float64,
            (2, dim, dim),
            elements=st.floats(-5, 5, allow_nan=False),
        ).map(lambda a: linalg.hermitian_part(a[0] + 1j * a[1]))

    return st.integers(1, max_dim).flatmap(build)


def fix_phases_by_column(vectors: np.ndarray) -> np.ndarray:
    """Reference gauge, one column at a time: the largest-magnitude entry
    (the first on a tie) is made real positive."""
    v = vectors.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        pivot = col[int(np.argmax(np.abs(col)))]
        mag = abs(pivot)
        if mag > 0.0:
            v[:, j] = col * (np.conj(pivot) / mag)
    return v


class TestEigh:
    def test_diagonal(self):
        es = linalg.eigh(np.diag([1.0, 2.0]))
        assert np.allclose(es.values, [1.0, 2.0])
        assert np.allclose(es.vectors, np.eye(2))

    def test_pauli_x_spectrum(self):
        es = linalg.eigh(SIGMA1)
        assert np.allclose(es.values, [-1.0, 1.0])

    def test_random_roundtrip(self):
        # Oracle: build M = V diag(w) V+ from a seeded Haar unitary and
        # known eigenvalues, then check the decomposition reproduces M.
        rng = np.random.default_rng(7)
        v = haar_unitary(4, rng)
        w = np.sort(rng.standard_normal(4))
        m = (v * w) @ linalg.dagger(v)
        es = linalg.eigh(m)
        resid = np.linalg.norm(es.reconstruct() - m)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(m))
        ortho = np.linalg.norm(linalg.dagger(es.vectors) @ es.vectors - np.eye(4))
        assert ortho <= 1e-10
        assert np.allclose(es.values, w)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(11)
        m = linalg.hermitian_part(complex_matrix(5, rng))
        a = linalg.eigh(m)
        b = linalg.eigh(m.copy())
        assert a.values.tobytes() == b.values.tobytes()
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_phase_gauge(self):
        rng = np.random.default_rng(13)
        m = linalg.hermitian_part(complex_matrix(4, rng))
        es = linalg.eigh(m)
        for col in es.vectors.T:
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0
            assert abs(pivot.imag) < 1e-12

    def test_phase_gauge_matches_column_loop(self):
        rng = np.random.default_rng(17)
        cases = [np.linalg.eigh(linalg.hermitian_part(complex_matrix(d, rng)))[1]
                 for d in (1, 2, 3, 5, 8, 16)]
        tied = np.array([[1.0, 1j, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]) / np.sqrt(2)
        cases.append(tied)  # equal magnitudes in a column, and a zero column
        for v in cases:
            assert linalg._fix_phases(v).tobytes() == fix_phases_by_column(v).tobytes()

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitian):
            linalg.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(hermitian_strategy())
    def test_reconstruction_property(self, m):
        es = linalg.eigh(m)
        assert np.linalg.norm(es.reconstruct() - m) <= 1e-10 * max(1.0, np.linalg.norm(m))


class TestTraceNorm:
    def test_zero(self):
        assert linalg.trace_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert linalg.trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)

    def test_skew_hermitian(self):
        # Oracle: M = i sigma_2 has M+ M = I, singular values (1, 1).
        assert linalg.trace_norm(1j * SIGMA2) == pytest.approx(2.0, abs=1e-12)

    def test_tiny_skew_hermitian(self):
        # Every entry is below the absolute Hermitian tolerance, so only a
        # relative test keeps this off the Hermitian path (which gives 0).
        m = np.array([[0.0, 3e-13], [-3e-13, 0.0]])
        svd = float(np.sum(np.linalg.svd(m, compute_uv=False)))
        assert svd == pytest.approx(6e-13, rel=1e-12, abs=0.0)
        assert linalg.trace_norm(m) == pytest.approx(svd, rel=1e-12, abs=0.0)

    def test_tiny_hermitian(self):
        rng = np.random.default_rng(23)
        h = 1e-13 * linalg.hermitian_part(complex_matrix(4, rng))
        svd = float(np.sum(np.linalg.svd(h, compute_uv=False)))
        assert linalg.trace_norm(h) == pytest.approx(svd, rel=1e-12, abs=0.0)

    def test_non_square(self):
        m = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        # Oracle: singular values of this 2x3 matrix are (4, 3).
        assert linalg.trace_norm(m) == pytest.approx(7.0, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 5, 8):
            m = complex_matrix(dim, rng)
            u = haar_unitary(dim, rng)
            v = haar_unitary(dim, rng)
            assert linalg.trace_norm(u @ m @ v) == pytest.approx(
                linalg.trace_norm(m), abs=1e-9
            )

    def test_diag_and_row_sandwich(self):
        # Appendix-style sandwich: sum |M_jj| <= ||M||_1 <= sum_j ||row_j||_2.
        rng = np.random.default_rng(19)
        for _ in range(100):
            dim = int(rng.integers(1, 17))
            m = complex_matrix(dim, rng)
            tn = linalg.trace_norm(m)
            assert np.sum(np.abs(np.diag(m))) <= tn + 1e-10
            assert tn <= np.sum(np.sqrt(np.sum(np.abs(m) ** 2, axis=1))) + 1e-10


class TestPsdFunctions:
    def test_sqrt_identity(self):
        assert np.allclose(linalg.sqrt_psd(np.eye(3)), np.eye(3))

    def test_sqrt_diagonal(self):
        assert np.allclose(linalg.sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_sqrt_projector(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        proj = np.outer(v, v.conj())
        assert np.allclose(linalg.sqrt_psd(proj), proj, atol=1e-12)

    @given(hermitian_strategy(max_dim=5))
    def test_sqrt_squares_back(self, h):
        m = h @ h.conj().T + 1e-6 * np.eye(h.shape[0])  # PSD by construction
        r = linalg.sqrt_psd(m)
        assert np.linalg.norm(r @ r - m) <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_sqrt_rejects_negative(self):
        with pytest.raises(NotPsd):
            linalg.sqrt_psd(np.diag([1.0, -0.5]))

    def test_inv_sqrt_identity(self):
        assert np.allclose(linalg.inv_sqrt_psd(np.eye(2)), np.eye(2))

    def test_inv_sqrt_diagonal(self):
        assert np.allclose(linalg.inv_sqrt_psd(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))

    def test_inv_sqrt_support_semantics(self):
        m = np.diag([1.0, 0.0])
        r = linalg.inv_sqrt_psd(m)
        assert np.allclose(r, np.diag([1.0, 0.0]))
        # R m R equals the support projector
        assert np.allclose(r @ m @ r, np.diag([1.0, 0.0]))

    def test_inv_sqrt_full_rank_required(self):
        with pytest.raises(SingularWhenFullRankRequired):
            linalg.inv_sqrt_psd(np.diag([1.0, 0.0]), require_full_rank=True)

    def test_pinv_support(self):
        m = np.diag([2.0, 0.0])
        assert np.allclose(linalg.pinv_psd(m), np.diag([0.5, 0.0]))


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron_power(np.eye(2), 3), np.eye(8))

    def test_overflow(self):
        with pytest.raises(DimensionOverflow):
            linalg.kron_power(np.eye(2), 6, dim_cap=32)
        assert linalg.kron_power(np.eye(2), 5, dim_cap=32).shape == (32, 32)

    def test_kron_power(self):
        assert np.allclose(linalg.kron_power(SIGMA3, 2), np.diag([1.0, -1.0, -1.0, 1.0]))


class TestCommutators:
    def test_pauli_algebra(self):
        assert np.allclose(linalg.commutator(SIGMA1, SIGMA2), 2j * SIGMA3)

    def test_self_commutator(self):
        assert np.allclose(linalg.commutator(SIGMA1, SIGMA1), np.zeros((2, 2)))

    def test_anticommutator(self):
        assert np.allclose(linalg.anticommutator(SIGMA1, SIGMA1), 2 * np.eye(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            linalg.commutator(np.eye(2), np.eye(3))

    @given(hermitian_strategy(max_dim=4), hermitian_strategy(max_dim=4))
    def test_structure(self, a, b):
        if a.shape != b.shape:
            return
        c = linalg.commutator(a, b)
        assert np.linalg.norm(c + c.conj().T) <= 1e-10 * max(1.0, np.linalg.norm(c))
        ac = linalg.anticommutator(a, b)
        assert np.linalg.norm(ac - ac.conj().T) <= 1e-10 * max(1.0, np.linalg.norm(ac))
