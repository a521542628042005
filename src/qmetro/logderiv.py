"""Symmetric and right logarithmic derivatives and Fisher information.

The SLD L_j solves d_j rho = (L_j rho + rho L_j)/2; the RLD L_j^R solves
d_j rho = rho L_j^R.  From the SLDs we assemble the quantum Fisher
information matrix F_Q, its commutator companion F_Im, and the
reparametrized ("tilde") operators whose Fisher matrix is the identity.

The n derivatives are handled as one (n, d, d) stack: each solver is a
batched product in the eigenbasis that :mod:`states` already holds, each
Fisher matrix one contraction over all pairs, and each defining-equation
residual is checked per parameter, naming the first that fails.  F_Q^(-1/2)
is computed once, with :class:`FisherData`, and shared by every user.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

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
    """Logarithmic derivatives of one kind for every parameter; ``stack``
    holds them as one (n, d, d) array, stacked from ``ops`` unless given."""

    kind: str  # "sld" | "rld"
    ops: tuple[np.ndarray, ...]
    stack: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.stack is None:
            object.__setattr__(self, "stack", np.asarray(self.ops, dtype=np.complex128))


@dataclass(frozen=True)
class FisherData:
    """F_Q, F_Im and (optionally) the RLD Fisher matrix.

    ``f_q`` is real symmetric PSD, ``f_im`` real skew-symmetric, and
    ``f_rld`` complex Hermitian when present.  ``inv_sqrt``, the principal
    F_Q^(-1/2), comes from one eigensolve of ``f_q`` at construction (a
    singular F_Q raises) unless given, as :func:`dataclasses.replace` does.
    F~_Im is formed on first use of :func:`tilde_fisher_im` and kept,
    read-only, and Tr(F_Q^-1 F_Re^RLD) on first read of ``rld_trace``.
    """

    f_q: np.ndarray
    f_im: np.ndarray
    f_rld: np.ndarray | None = None
    inv_sqrt: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.inv_sqrt is None:
            w, v = np.linalg.eigh(self.f_q)
            if float(np.min(w)) <= QFIM_RTOL * max(float(np.max(np.abs(w))), 1e-300):
                raise SingularQfim(f"F_Q minimum eigenvalue {float(np.min(w)):.3e}")
            object.__setattr__(self, "inv_sqrt", (v / np.sqrt(w)) @ v.T)

    @property
    def n(self) -> int:
        return self.f_q.shape[0]

    @functools.cached_property
    def _tilde_im(self) -> np.ndarray:
        s = self.inv_sqrt
        out = s @ self.f_im @ s
        out.flags.writeable = False
        return out

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

    @functools.cached_property
    def rld_trace(self) -> float:
        """Tr(F_Q^-1 F_Re^RLD), the leading term of both RLD bounds: one
        solve per ``fisher``, however many p read it."""
        return float(np.trace(np.linalg.solve(self.f_q, self.f_rld_re)).real)


def compute_sld(state: EvaluatedState) -> DerivativeSet:
    """SLD operators, kernel-kernel block fixed to zero (minimal-norm choice)."""
    es = state.eigen
    lam = es.values
    v = es.vectors
    denom = lam[:, None] + lam[None, :]
    reachable = denom > state.rank_tol
    drho = state.deriv_stack
    d_eig = dagger(v) @ drho @ v
    l_eig = np.where(reachable, 2.0 * d_eig / np.where(reachable, denom, 1.0), 0.0)
    ops = linalg.hermitian_part(v @ l_eig @ dagger(v))
    residual = np.linalg.norm((ops @ state.rho + state.rho @ ops) / 2.0 - drho, axis=(1, 2))
    message = "SLD reconstruction residual {value:.3e} for parameter {j}"
    linalg.check_each(residual, RECON_ATOL, UnsupportedDerivative, message)
    return DerivativeSet("sld", tuple(ops), ops)


def compute_rld(state: EvaluatedState) -> DerivativeSet:
    """RLD operators L^R = rho^+ d rho on the support.

    Raises RldUndefined when any derivative leaks outside range(rho):
    the defining equation d rho = rho L^R then has no solution and every
    RLD-based bound is inapplicable.
    """
    rho_pinv = linalg.pinv_psd(state.rho, rank_tol=state.rank_tol, eigen=state.eigen)
    drho = state.deriv_stack
    leak = np.linalg.norm((np.eye(state.dim) - state.support_projector) @ drho, axis=(1, 2))
    message = "derivative {j} leaks outside range(rho) by {value:.3e}"
    linalg.check_each(leak, RLD_RANGE_ATOL, RldUndefined, message)
    ops = rho_pinv @ drho
    residual = np.linalg.norm(state.rho @ ops - drho, axis=(1, 2))
    message = "RLD defining equation residual {value:.3e} for parameter {j}"
    linalg.check_each(residual, RECON_ATOL, RldUndefined, message)
    return DerivativeSet("rld", tuple(ops), ops)


def compute_fisher(state: EvaluatedState, slds: DerivativeSet) -> FisherData:
    """SLD quantum Fisher information: F_Q symmetric PSD, F_Im skew."""
    if slds.kind != "sld":
        raise UnsupportedDerivative(f"compute_fisher needs SLDs, got kind={slds.kind!r}")
    ops = slds.stack
    g = np.einsum("kac,jca->kj", state.rho @ ops, ops)  # Tr(rho L_k L_j) = F_Q + i F_Im
    return FisherData(f_q=(g.real + g.real.T) / 2.0, f_im=(g.imag - g.imag.T) / 2.0)


def compute_rld_fisher(
    state: EvaluatedState, rlds: DerivativeSet, fisher: FisherData
) -> FisherData:
    """Attach the RLD Fisher matrix Tr(rho L_j^R L_k^R+) to ``fisher``."""
    if rlds.kind != "rld":
        raise UnsupportedDerivative(f"compute_rld_fisher needs RLDs, got {rlds.kind!r}")
    ops = rlds.stack
    f = np.einsum("jac,kac->jk", state.rho @ ops, ops.conj())
    return replace(fisher, f_rld=(f + dagger(f)) / 2.0)


def reparametrize(dset: DerivativeSet, fisher: FisherData) -> tuple[np.ndarray, ...]:
    """Tilde operators L~_j = sum_q (F_Q^(-1/2))_{jq} L_q, from one matrix
    product on the flattened stack.

    Under this symmetric reparametrization the SLD Fisher matrix becomes
    the identity; the same mixing applies to RLD sets.
    """
    ops = dset.stack
    return tuple((fisher.inv_sqrt @ ops.reshape(len(ops), -1)).reshape(ops.shape))


def tilde_fisher_im(fisher: FisherData) -> np.ndarray:
    """F~_Im = F_Q^(-1/2) F_Im F_Q^(-1/2), the weak-commutativity witness
    (read-only, formed once per ``fisher``)."""
    return fisher._tilde_im


def sld_analysis(
    state: EvaluatedState,
) -> tuple[DerivativeSet, FisherData, tuple[np.ndarray, ...]]:
    """Convenience pipeline: SLDs, Fisher data, tilde operators."""
    slds = compute_sld(state)
    fisher = compute_fisher(state, slds)
    tilde = reparametrize(slds, fisher)
    return slds, fisher, tilde
