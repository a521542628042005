"""Symmetric and right logarithmic derivatives and Fisher information.

The SLD L_j solves d_j rho = (L_j rho + rho L_j)/2; the RLD L_j^R solves
d_j rho = rho L_j^R.  From the SLDs we assemble the quantum Fisher
information matrix F_Q, its commutator companion F_Im, and the
reparametrized ("tilde") operators whose Fisher matrix is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import RldUndefined, SingularQfim, UnsupportedDerivative
from .linalg import dagger
from .states import EvaluatedState

#: Residual allowed on the defining equations of the logarithmic derivatives.
RECON_ATOL = 1e-8

#: Residual allowed on the range-inclusion test for the RLD.
RLD_RANGE_ATOL = 1e-9

#: Relative singularity threshold on F_Q.
QFIM_RTOL = 1e-10


@dataclass(frozen=True)
class DerivativeSet:
    """Logarithmic derivatives of one kind for every parameter."""

    kind: str  # "sld" | "rld"
    ops: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class FisherData:
    """F_Q, F_Im and (optionally) the RLD Fisher matrix.

    ``f_q`` is real symmetric PSD, ``f_im`` real skew-symmetric, and
    ``f_rld`` complex Hermitian when present.
    """

    f_q: np.ndarray
    f_im: np.ndarray
    f_rld: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.f_q.shape[0]

    @property
    def f_rld_re(self) -> np.ndarray:
        if self.f_rld is None:
            raise RldUndefined("no RLD Fisher matrix attached")
        return np.real(self.f_rld)

    @property
    def f_rld_im(self) -> np.ndarray:
        if self.f_rld is None:
            raise RldUndefined("no RLD Fisher matrix attached")
        return np.imag(self.f_rld)


def compute_sld(state: EvaluatedState) -> DerivativeSet:
    """SLD operators, kernel-kernel block fixed to zero (minimal-norm choice)."""
    es = state.eigen
    lam = es.values
    v = es.vectors
    denom = lam[:, None] + lam[None, :]
    reachable = denom > state.rank_tol
    ops = []
    for j, drho in enumerate(state.derivs):
        d_eig = dagger(v) @ drho @ v
        l_eig = np.where(reachable, 2.0 * d_eig / np.where(reachable, denom, 1.0), 0.0)
        op = linalg.hermitian_part(v @ l_eig @ dagger(v))
        residual = linalg.frobenius((op @ state.rho + state.rho @ op) / 2.0 - drho)
        if residual > RECON_ATOL:
            raise UnsupportedDerivative(
                f"SLD reconstruction residual {residual:.3e} for parameter {j}"
            )
        ops.append(op)
    return DerivativeSet("sld", tuple(ops))


def compute_rld(state: EvaluatedState) -> DerivativeSet:
    """RLD operators L^R = rho^+ d rho on the support.

    Raises RldUndefined when any derivative leaks outside range(rho):
    the defining equation d rho = rho L^R then has no solution and every
    RLD-based bound is inapplicable.
    """
    proj = state.support_projector
    rho_pinv = linalg.pinv_psd(state.rho, rank_tol=state.rank_tol)
    eye = np.eye(state.dim)
    ops = []
    for j, drho in enumerate(state.derivs):
        leak = linalg.frobenius((eye - proj) @ drho)
        if leak > RLD_RANGE_ATOL:
            raise RldUndefined(
                f"derivative {j} leaks outside range(rho) by {leak:.3e}"
            )
        op = rho_pinv @ drho
        residual = linalg.frobenius(state.rho @ op - drho)
        if residual > RECON_ATOL:
            raise RldUndefined(
                f"RLD defining equation residual {residual:.3e} for parameter {j}"
            )
        ops.append(op)
    return DerivativeSet("rld", tuple(ops))


def compute_fisher(state: EvaluatedState, slds: DerivativeSet) -> FisherData:
    """SLD quantum Fisher information: F_Q symmetric PSD, F_Im skew."""
    if slds.kind != "sld":
        raise UnsupportedDerivative(f"compute_fisher needs SLDs, got kind={slds.kind!r}")
    n = slds.n
    rho = state.rho
    f_q = np.zeros((n, n))
    f_im = np.zeros((n, n))
    prods = [rho @ op for op in slds.ops]
    for k in range(n):
        for j in range(k, n):
            val = complex(np.trace(prods[k] @ slds.ops[j]))
            # Tr(rho L_k L_j) = (F_Q)_{kj} + i (F_Im)_{kj}
            f_q[k, j] = f_q[j, k] = val.real
            f_im[k, j] = val.imag
            f_im[j, k] = -val.imag
    w = np.linalg.eigvalsh(f_q)
    if float(np.min(w)) <= QFIM_RTOL * max(float(np.max(np.abs(w))), 1e-300):
        raise SingularQfim(f"F_Q minimum eigenvalue {float(np.min(w)):.3e}")
    return FisherData(f_q=f_q, f_im=f_im)


def compute_rld_fisher(
    state: EvaluatedState, rlds: DerivativeSet, fisher: FisherData
) -> FisherData:
    """Attach the RLD Fisher matrix Tr(rho L_j^R L_k^R+) to ``fisher``."""
    if rlds.kind != "rld":
        raise UnsupportedDerivative(f"compute_rld_fisher needs RLDs, got {rlds.kind!r}")
    n = rlds.n
    f = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        left = state.rho @ rlds.ops[j]
        for k in range(n):
            f[j, k] = complex(np.trace(left @ dagger(rlds.ops[k])))
    f = (f + dagger(f)) / 2.0
    return replace(fisher, f_rld=f)


def qfim_inv_sqrt(fisher: FisherData) -> np.ndarray:
    """Principal F_Q^(-1/2); raises SingularQfim on rank deficiency."""
    w, v = np.linalg.eigh(fisher.f_q)
    if float(np.min(w)) <= QFIM_RTOL * max(float(np.max(np.abs(w))), 1e-300):
        raise SingularQfim(f"F_Q minimum eigenvalue {float(np.min(w)):.3e}")
    return (v / np.sqrt(w)) @ v.T


def reparametrize(dset: DerivativeSet, fisher: FisherData) -> tuple[np.ndarray, ...]:
    """Tilde operators L~_j = sum_q (F_Q^(-1/2))_{jq} L_q.

    Under this symmetric reparametrization the SLD Fisher matrix becomes
    the identity; the same mixing applies to RLD sets.
    """
    s = qfim_inv_sqrt(fisher)
    return tuple(
        sum(s[j, q] * dset.ops[q] for q in range(dset.n)) for j in range(dset.n)
    )


def tilde_fisher_im(fisher: FisherData) -> np.ndarray:
    """F~_Im = F_Q^(-1/2) F_Im F_Q^(-1/2), the weak-commutativity witness."""
    s = qfim_inv_sqrt(fisher)
    return s @ fisher.f_im @ s


def sld_analysis(
    state: EvaluatedState,
) -> tuple[DerivativeSet, FisherData, tuple[np.ndarray, ...]]:
    """Convenience pipeline: SLDs, Fisher data, tilde operators."""
    slds = compute_sld(state)
    fisher = compute_fisher(state, slds)
    tilde = reparametrize(slds, fisher)
    return slds, fisher, tilde
