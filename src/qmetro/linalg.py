"""Dense complex linear algebra primitives shared by all other modules.

Everything operates on plain ``numpy.ndarray`` values with complex128
entries.  Matrix "types" from the domain model (Hermitian matrices,
eigensystems) are realized as validation helpers plus a small
:class:`EigenSystem` container; all functions are pure and never mutate
their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionOverflow,
    DimMismatch,
    NonHermitian,
    NotPsd,
    SingularWhenFullRankRequired,
)

#: Largest allowed dimension of a Kronecker power here and of an irrep
#: block in ``tensor``.  Overridable per call (the CLI maps QMETRO_MAX_DIM
#: onto the block cap).
DEFAULT_DIM_CAP = 16384

#: Per-entry absolute tolerance for Hermitian-symmetry checks.
HERMITIAN_ATOL = 1e-12

#: Relative eigenvalue cutoff used for support detection on the PSD cone.
RANK_TOL_FACTOR = 1e-10


def as_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimMismatch(f"expected a matrix, got ndim={a.ndim}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†)/2 of a matrix or of each matrix in an (n, d, d) stack."""
    m = np.asarray(m, dtype=np.complex128)
    return (m + dagger(m)) / 2.0


def check_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate per-entry Hermitian symmetry; returns the input as complex128."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NonHermitian(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    dev = np.max(np.abs(a - dagger(a))) if a.size else 0.0
    if dev > atol:
        raise NonHermitian(f"Hermitian symmetry violated by {dev:.3e} (atol {atol:.1e})")
    return a


def check_each(values: np.ndarray, atol: float, exc: type, message: str) -> None:
    """Raise ``exc`` for the first index j with ``values[j] > atol``; the
    message is formatted with ``j`` and ``value``."""
    bad = np.flatnonzero(values > atol)
    if bad.size:
        raise exc(message.format(j=int(bad[0]), value=values[bad[0]]))


def relative_rank_tol(eigenvalues: np.ndarray, factor: float = RANK_TOL_FACTOR) -> float:
    """Scale-invariant support cutoff: ``factor`` times the largest |eigenvalue|."""
    w = np.asarray(eigenvalues, dtype=float)
    return factor * (float(np.max(np.abs(w))) if w.size else 0.0)


@dataclass(frozen=True)
class EigenSystem:
    """Hermitian eigendecomposition with a deterministic gauge.

    ``values`` ascend; each eigenvector's largest-magnitude entry is made
    real positive, and exactly-tied eigenvalues order their vectors
    lexicographically by real parts.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ dagger(self.vectors)

    def apply_function(self, fn) -> np.ndarray:
        """V f(diag) V† for an elementwise function of the eigenvalues."""
        return (self.vectors * fn(self.values)) @ dagger(self.vectors)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    pivot = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    # hypot, not np.abs: it rounds |pivot| as the scalar abs() of the
    # per-column gauge did, so the gauge stays bitwise the same.
    mag = np.hypot(pivot.real, pivot.imag)
    nonzero = mag > 0.0
    return vectors * np.where(nonzero, np.conj(pivot) / np.where(nonzero, mag, 1.0), 1.0)


def _sort_ties(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # Lexicographic real-part ordering inside groups of exactly equal
    # eigenvalues; groups of length 1 (the usual case) are untouched.
    start = 0
    d = values.shape[0]
    while start < d:
        stop = start + 1
        while stop < d and values[stop] == values[start]:
            stop += 1
        if stop - start > 1:
            block = vectors[:, start:stop]
            order = sorted(range(stop - start), key=lambda i: tuple(np.real(block[:, i])))
            vectors[:, start:stop] = block[:, order]
        start = stop
    return vectors


def eigh(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Raises NonHermitian if the symmetry check fails.  Two calls on
    identical input produce bitwise-identical results.
    """
    a = check_hermitian(m, atol=atol)
    w, v = np.linalg.eigh(hermitian_part(a))
    v = _fix_phases(v)
    v = _sort_ties(w, v)
    return EigenSystem(values=w, vectors=v)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values of ``m``.

    Hermitian and skew-Hermitian inputs take an eigenvalue fast path
    (singular values are |eigenvalues| there); the general case uses a
    full SVD.  The contract is identical on all paths.  Symmetry is
    judged relative to the largest entry, HERMITIAN_ATOL * max|m|, so a
    tiny skew-Hermitian matrix is not mistaken for a Hermitian one.
    """
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    if a.shape[0] == a.shape[1]:
        tol = HERMITIAN_ATOL * np.max(np.abs(a))
        dev_h = np.max(np.abs(a - dagger(a)))
        if dev_h <= tol:
            return float(np.sum(np.abs(np.linalg.eigvalsh(hermitian_part(a)))))
        dev_s = np.max(np.abs(a + dagger(a)))
        if dev_s <= tol:
            return float(np.sum(np.abs(np.linalg.eigvalsh(hermitian_part(1j * a)))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def _psd_eigensystem(
    m: np.ndarray, rank_tol: float | None, eigen: EigenSystem | None = None
) -> tuple[EigenSystem, float]:
    es = eigh(m) if eigen is None else eigen
    tol = relative_rank_tol(es.values) if rank_tol is None else float(rank_tol)
    w_min = float(np.min(es.values)) if es.values.size else 0.0
    if w_min < -tol:
        raise NotPsd(f"eigenvalue {w_min:.3e} below -rank_tol ({tol:.1e})")
    return es, tol


def sqrt_psd(
    m: np.ndarray, rank_tol: float | None = None, eigen: EigenSystem | None = None
) -> np.ndarray:
    """Principal square root on the PSD cone; eigenvalues <= rank_tol act as 0.
    ``eigen``, the :func:`eigh` of ``m`` if the caller holds it, saves the solve."""
    es, tol = _psd_eigensystem(m, rank_tol, eigen)
    w = np.where(es.values > tol, es.values, 0.0)
    return hermitian_part(es.apply_function(lambda _: np.sqrt(w)))


def inv_sqrt_psd(
    m: np.ndarray,
    rank_tol: float | None = None,
    require_full_rank: bool = False,
) -> np.ndarray:
    """Inverse square root on the support of a PSD matrix.

    On the support (eigenvalues > rank_tol) the result R satisfies
    R m R = support projector; kernel directions map to 0.  With
    ``require_full_rank`` a rank deficiency raises instead.
    """
    es, tol = _psd_eigensystem(m, rank_tol)
    support = es.values > tol
    if require_full_rank and not bool(np.all(support)):
        raise SingularWhenFullRankRequired(
            f"eigenvalue <= rank_tol ({tol:.1e}) with full rank required"
        )
    w = np.where(support, es.values, 1.0)
    out = np.where(support, 1.0 / np.sqrt(w), 0.0)
    return hermitian_part(es.apply_function(lambda _: out))


def pinv_psd(
    m: np.ndarray, rank_tol: float | None = None, eigen: EigenSystem | None = None
) -> np.ndarray:
    """Moore-Penrose inverse on the support of a PSD matrix; ``eigen`` as in sqrt_psd."""
    es, tol = _psd_eigensystem(m, rank_tol, eigen)
    support = es.values > tol
    w = np.where(support, es.values, 1.0)
    out = np.where(support, 1.0 / w, 0.0)
    return hermitian_part(es.apply_function(lambda _: out))


def kron_power(m: np.ndarray, p: int, dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """p-fold Kronecker power of ``m``."""
    if p < 1:
        raise DimMismatch(f"kron power needs p >= 1, got {p}")
    m = as_matrix(m)
    d = max(m.shape)
    if d**p > dim_cap:
        raise DimensionOverflow(f"{d}^{p} = {d**p} exceeds dimension cap {dim_cap}")
    out = m
    for _ in range(p - 1):
        out = np.kron(out, m)
    return out


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    return a, b


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba; skew-Hermitian for Hermitian inputs."""
    a, b = _check_same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{a, b} = ab + ba; Hermitian for Hermitian inputs."""
    a, b = _check_same_dim(a, b)
    return a @ b + b @ a
