"""The generic mixed-state precision bound over locally unbiased operators.

For any complete vector set {|u_q>} and any per-vector transpose choice,
nu Tr[W Cov] >= Tr[W Abar_Re] + ||sqrt(W) Abar_Im sqrt(W)||_1 with
Abar = sum_q (A_{u_q} or A_{u_q}^T), (A_u)_{jk} = <u|sqrt(rho) X_j X_k sqrt(rho)|u>.
Keeping every A_u as-is recovers the Holevo functional; for two
parameters, aligning transposes in the eigenbasis of
sqrt(rho)[X_1,X_2]sqrt(rho) recovers the Nagaoka functional.

The minimizer is a projected subgradient descent over the affine set of
locally unbiased operator tuples.  A feasible iterate X gives f(X) >= C,
an upper estimate of the minimum C of the functional, not a certified
lower bound on nu Tr[W Cov]; only the minimum itself is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    DegenerateConstraints,
    InvalidN,
    InvalidState,
    InvalidWeight,
)
from .linalg import dagger, hermitian_part
from .logderiv import DerivativeSet, FisherData
from .states import EvaluatedState
from .tensor import (
    AS_IS,
    TRANSPOSED,
    AlignEntry,
    Signs,
    UBasis,
    _resolve_signs,
    _signs_from_values,
)

#: Residual required of the affine projection onto the unbiasedness set.
PROJECTION_ATOL = 1e-10


@dataclass(frozen=True)
class LocallyUnbiasedSet:
    """Hermitian operators X_j with Tr(rho X_j) = 0, Tr(d_k rho X_j) = delta_kj.

    ``trace_residuals`` and ``unbias_residual`` witness how well the
    constraints hold (the latter is the deviation of Tr(d_k rho X_j)
    from the identity matrix).
    """

    ops: tuple[np.ndarray, ...]
    trace_residuals: np.ndarray | None = None
    unbias_residual: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class LocalMeasurement:
    """A POVM with per-outcome estimate vectors."""

    elements: tuple[np.ndarray, ...]
    estimates: np.ndarray  # shape (outcomes, n)

    def validate(self, atol: float = 1e-9) -> None:
        dim = self.elements[0].shape[0]
        total = np.zeros((dim, dim), dtype=np.complex128)
        for m in self.elements:
            w = np.linalg.eigvalsh(hermitian_part(m))
            if float(np.min(w)) < -atol:
                raise InvalidState(f"POVM element has eigenvalue {float(np.min(w)):.3e}")
            total += m
        dev = float(np.max(np.abs(total - np.eye(dim))))
        if dev > atol:
            raise InvalidState(f"POVM elements sum deviates from I by {dev:.3e}")
        if self.estimates.shape[0] != len(self.elements):
            raise InvalidState("one estimate vector per POVM outcome required")


def constraint_witnesses(
    ops: Sequence[np.ndarray], state: EvaluatedState
) -> tuple[np.ndarray, np.ndarray]:
    n = len(ops)
    traces = np.array([float(np.real(np.trace(state.rho @ x))) for x in ops])
    unbias = np.zeros((n, n))
    for k, drho in enumerate(state.derivs):
        for j, x in enumerate(ops):
            unbias[k, j] = float(np.real(np.trace(drho @ x)))
    return traces, unbias - np.eye(n)


def observables_from_measurement(
    meas: LocalMeasurement,
    x0: Sequence[float],
    state: EvaluatedState | None = None,
) -> LocallyUnbiasedSet:
    """X_j = sum_a (xhat_j(a) - x0_j) M_a.

    Unbiasedness is reported, not enforced: pass ``state`` to fill the
    residual witnesses.
    """
    meas.validate()
    x0 = np.asarray(x0, dtype=float)
    n = meas.estimates.shape[1]
    ops = []
    for j in range(n):
        x = sum(
            (meas.estimates[a, j] - x0[j]) * meas.elements[a]
            for a in range(len(meas.elements))
        )
        ops.append(hermitian_part(x))
    traces = unbias = None
    if state is not None:
        traces, unbias = constraint_witnesses(ops, state)
    return LocallyUnbiasedSet(ops=tuple(ops), trace_residuals=traces, unbias_residual=unbias)


def _constraint_frame(state: EvaluatedState) -> tuple[list[np.ndarray], np.ndarray]:
    frame = [state.rho] + list(state.derivs)
    k = len(frame)
    gram = np.zeros((k, k))
    for a in range(k):
        for b in range(a, k):
            gram[a, b] = gram[b, a] = float(np.real(np.trace(frame[a] @ frame[b])))
    w = np.linalg.eigvalsh(gram)
    if float(np.min(w)) <= 1e-12 * max(float(np.max(np.abs(w))), 1e-300):
        raise DegenerateConstraints(
            f"constraint Gram matrix nearly singular (min eig {float(np.min(w)):.3e})"
        )
    return frame, gram


def project_unbiased(
    x_raw: Sequence[np.ndarray], state: EvaluatedState
) -> LocallyUnbiasedSet:
    """Frobenius projection of each X_j onto the locally unbiased affine set."""
    frame, gram = _constraint_frame(state)
    n = state.n
    ops = []
    for j in range(n):
        x = hermitian_part(np.asarray(x_raw[j], dtype=np.complex128))
        targets = np.zeros(n + 1)
        targets[1 + j] = 1.0
        current = np.array([float(np.real(np.trace(v @ x))) for v in frame])
        coeffs = np.linalg.solve(gram, current - targets)
        for c, v in zip(coeffs, frame):
            x = x - c * v
        ops.append(hermitian_part(x))
    traces, unbias = constraint_witnesses(ops, state)
    if float(np.max(np.abs(traces))) > PROJECTION_ATOL or float(
        np.max(np.abs(unbias))
    ) > PROJECTION_ATOL:
        raise DegenerateConstraints("projection failed to reach the constraint set")
    return LocallyUnbiasedSet(ops=tuple(ops), trace_residuals=traces, unbias_residual=unbias)


def canonical_unbiased(slds: DerivativeSet, fisher: FisherData) -> LocallyUnbiasedSet:
    """The canonical feasible tuple X_j = sum_k (F_Q^-1)_{jk} L_k."""
    n = fisher.n
    finv = np.linalg.inv(fisher.f_q)
    ops = tuple(
        hermitian_part(sum(finv[j, k] * slds.ops[k] for k in range(n))) for j in range(n)
    )
    return LocallyUnbiasedSet(ops=ops)


def z_matrix(state: EvaluatedState, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Z(X)_{jk} = Tr(rho X_j X_k)."""
    n = len(ops)
    z = np.zeros((n, n), dtype=np.complex128)
    prods = [state.rho @ x for x in ops]
    for j in range(n):
        for k in range(n):
            z[j, k] = complex(np.trace(prods[j] @ ops[k]))
    return z


# --- per-vector pair matrices (property suite) --------------------------------


def pair_matrices(
    state: EvaluatedState,
    x_ops: Sequence[np.ndarray],
    l_ops: Sequence[np.ndarray],
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A_u, B_u, F_u) blocks of S_u = [[A, B], [B+, F]] >= 0."""
    w = state.sqrt_rho @ np.asarray(u, dtype=np.complex128)
    x_cols = np.stack([x @ w for x in x_ops], axis=1)
    l_cols = np.stack([l @ w for l in l_ops], axis=1)
    a_u = dagger(x_cols) @ x_cols
    b_u = dagger(x_cols) @ l_cols
    f_u = dagger(l_cols) @ l_cols
    return a_u, b_u, f_u


def a_u_matrix(state: EvaluatedState, ops: Sequence[np.ndarray], u: np.ndarray) -> np.ndarray:
    w = state.sqrt_rho @ np.asarray(u, dtype=np.complex128)
    cols = np.stack([x @ w for x in ops], axis=1)
    return dagger(cols) @ cols


def cov_u_matrix(
    meas: LocalMeasurement,
    x0: Sequence[float],
    state: EvaluatedState,
    u: np.ndarray,
) -> np.ndarray:
    """(Cov_u)_{jk} = sum_a (xhat_j - x_j)(xhat_k - x_k) <u|sqrt(rho) M_a sqrt(rho)|u>."""
    x0 = np.asarray(x0, dtype=float)
    w = state.sqrt_rho @ np.asarray(u, dtype=np.complex128)
    centered = meas.estimates - x0[None, :]
    out = np.zeros((centered.shape[1], centered.shape[1]))
    for a, m in enumerate(meas.elements):
        prob = float(np.real(np.conj(w) @ (m @ w)))
        out += prob * np.outer(centered[a], centered[a])
    return out


def cov_matrix(meas: LocalMeasurement, x0: Sequence[float], state: EvaluatedState) -> np.ndarray:
    """Cov(xhat)_{jk} = sum_a (xhat_j - x_j)(xhat_k - x_k) Tr(rho M_a)."""
    x0 = np.asarray(x0, dtype=float)
    centered = meas.estimates - x0[None, :]
    out = np.zeros((centered.shape[1], centered.shape[1]))
    for a, m in enumerate(meas.elements):
        prob = float(np.real(np.trace(state.rho @ m)))
        out += prob * np.outer(centered[a], centered[a])
    return out


# --- the general bound ----------------------------------------------------------


def _check_weight(w: np.ndarray | None, n: int) -> np.ndarray:
    if w is None:
        return np.eye(n)
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (n, n):
        raise InvalidWeight(f"weight has shape {w.shape}, expected {(n, n)}")
    vals = np.linalg.eigvalsh(hermitian_part(w))
    if float(np.min(vals)) < -1e-10 * max(1.0, float(np.max(np.abs(vals)))):
        raise InvalidWeight(f"weight matrix has eigenvalue {float(np.min(vals)):.3e}")
    return np.real(hermitian_part(w))


def evaluate_general_bound(
    x_set: LocallyUnbiasedSet | Sequence[np.ndarray],
    state: EvaluatedState,
    basis: UBasis | None = None,
    signs: Signs = None,
    w: np.ndarray | None = None,
) -> float:
    """Tr[W Abar_Re] + ||sqrt(W) Abar_Im sqrt(W)||_1 for a basis/sign choice.

    The functional evaluated at a feasible ``x_set``; its minimum over
    feasible sets, not the value at any one set, bounds nu Tr[W Cov]
    from below.  With all signs as-is the value is the Holevo functional
    (and is then basis-independent).
    """
    ops = x_set.ops if isinstance(x_set, LocallyUnbiasedSet) else tuple(x_set)
    n = len(ops)
    w_mat = _check_weight(w, n)
    if basis is None:
        basis = UBasis.computational(state.dim)
    basis.check_complete()
    if signs is None:
        signs = [AS_IS] * basis.count
    a_list = [a_u_matrix(state, ops, basis.vectors[q]) for q in range(basis.count)]
    if isinstance(signs, AlignEntry):
        vals = np.array([np.imag(a[signs.j, signs.k]) for a in a_list])
        sign_arr = _signs_from_values(vals)
    else:
        sign_arr = _resolve_signs(signs, basis.count)
    a_re = sum(np.real(a) for a in a_list)
    a_im = sum(s * np.imag(a) for s, a in zip(sign_arr, a_list))
    a_im = (a_im - a_im.T) / 2.0
    sqrt_w = linalg.sqrt_psd(w_mat)
    return float(np.sum(w_mat * a_re)) + linalg.trace_norm(sqrt_w @ a_im @ sqrt_w)


def nagaoka_alignment(
    state: EvaluatedState, ops: Sequence[np.ndarray]
) -> tuple[UBasis, list[str]]:
    """Eigenbasis of sqrt(rho)[X_1, X_2]sqrt(rho) with sign-aligned choices.

    Feeding the result to evaluate_general_bound yields the Nagaoka
    functional Tr(rho X_1^2) + Tr(rho X_2^2) + ||sqrt(rho)[X_1,X_2]sqrt(rho)||_1
    at W = I.  Two-parameter sets only.  This is the p = 1 case of the
    F-bar commutator eigenbasis with the same sign rule.
    """
    if len(ops) != 2:
        raise InvalidN(f"Nagaoka alignment is a two-parameter construction, got n={len(ops)}")
    s = state.sqrt_rho
    es = linalg.eigh(-1j * s @ linalg.commutator(ops[0], ops[1]) @ s)  # the commutator is i H
    signs = _signs_from_values(es.values / 2.0)
    return UBasis.from_columns(es.vectors), [AS_IS if v > 0 else TRANSPOSED for v in signs]


# --- objectives and the projected subgradient minimizer ---------------------------


def holevo_objective(
    state: EvaluatedState, ops: Sequence[np.ndarray], w_mat: np.ndarray
) -> float:
    z = z_matrix(state, ops)
    sqrt_w = linalg.sqrt_psd(w_mat)
    return float(np.sum(w_mat * np.real(z))) + linalg.trace_norm(
        sqrt_w @ np.imag(z) @ sqrt_w
    )


def nagaoka_objective(
    state: EvaluatedState, ops: Sequence[np.ndarray], w_mat: np.ndarray
) -> float:
    if len(ops) != 2:
        raise InvalidN("Nagaoka objective needs exactly two parameters")
    z = z_matrix(state, ops)
    s = state.sqrt_rho
    t = 0.5 * linalg.trace_norm(s @ linalg.commutator(ops[0], ops[1]) @ s)
    sqrt_w = linalg.sqrt_psd(w_mat)
    j_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
    kappa = linalg.trace_norm(sqrt_w @ j_mat @ sqrt_w)
    return float(np.sum(w_mat * np.real(z))) + kappa * t


def _real_term_gradient(
    state: EvaluatedState, ops: Sequence[np.ndarray], w_mat: np.ndarray
) -> list[np.ndarray]:
    n = len(ops)
    rho = state.rho
    sym = [ops[k] @ rho + rho @ ops[k] for k in range(n)]
    return [
        hermitian_part(sum(w_mat[l, k] * sym[k] for k in range(n))) for l in range(n)
    ]


def _holevo_subgradient(
    state: EvaluatedState, ops: Sequence[np.ndarray], w_mat: np.ndarray
) -> list[np.ndarray]:
    n = len(ops)
    rho = state.rho
    grads = _real_term_gradient(state, ops, w_mat)
    z = z_matrix(state, ops)
    sqrt_w = linalg.sqrt_psd(w_mat)
    m = sqrt_w @ np.imag(z) @ sqrt_w
    u_m, _, vt_m = np.linalg.svd(m)
    q = sqrt_w @ (u_m @ vt_m) @ sqrt_w
    half_comms = [hermitian_part(linalg.commutator(x, rho) / (2.0j)) for x in ops]
    for l in range(n):
        extra = sum((q[l, k] - q[k, l]) * half_comms[k] for k in range(n))
        grads[l] = grads[l] + hermitian_part(extra)
    return grads


def _nagaoka_subgradient(
    state: EvaluatedState, ops: Sequence[np.ndarray], w_mat: np.ndarray
) -> list[np.ndarray]:
    grads = _real_term_gradient(state, ops, w_mat)
    s = state.sqrt_rho
    k_mat = s @ linalg.commutator(ops[0], ops[1]) @ s
    u_m, _, vt_m = np.linalg.svd(k_mat)
    r = s @ dagger(u_m @ vt_m) @ s
    sqrt_w = linalg.sqrt_psd(w_mat)
    j_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
    kappa = linalg.trace_norm(sqrt_w @ j_mat @ sqrt_w)
    grads[0] = grads[0] + (kappa / 2.0) * hermitian_part(ops[1] @ r - r @ ops[1])
    grads[1] = grads[1] + (kappa / 2.0) * hermitian_part(r @ ops[0] - ops[0] @ r)
    return grads


@dataclass(frozen=True)
class MinimizeConfig:
    """Settings for the projected subgradient descent."""

    strategy: str = "holevo"  # "holevo" | "nagaoka"
    w: np.ndarray | None = None
    max_iters: int = 5000
    step: float = 0.1  # diminishing step c / sqrt(t)
    tol: float = 1e-7  # relative improvement threshold for convergence
    patience: int = 100  # iterations without improvement before stopping


@dataclass(frozen=True)
class MinimizeResult:
    value: float
    ops: tuple[np.ndarray, ...]
    trace: tuple[float, ...]  # best objective seen, per iteration (non-increasing)
    converged: bool
    iterations: int
    strategy: str


def minimize_bound(
    state: EvaluatedState,
    slds: DerivativeSet,
    fisher: FisherData,
    config: MinimizeConfig | None = None,
) -> MinimizeResult:
    """Minimize the chosen bound functional over locally unbiased sets.

    Starts from the canonical X_j = sum_k (F_Q^-1)_{jk} L_k (feasible by
    construction) and keeps every iterate feasible.  The best value seen
    is an upper estimate of the minimum, not a certified lower bound on
    nu Tr[W Cov]; non-convergence is reported via the flag, never as an
    error.
    """
    cfg = config or MinimizeConfig()
    n = fisher.n
    w_mat = _check_weight(cfg.w, n)
    if cfg.strategy == "holevo":
        objective, subgradient = holevo_objective, _holevo_subgradient
    elif cfg.strategy == "nagaoka":
        if n != 2:
            raise InvalidN("the Nagaoka strategy is defined for n = 2")
        objective, subgradient = nagaoka_objective, _nagaoka_subgradient
    else:
        raise InvalidN(f"unknown strategy {cfg.strategy!r}")

    current = list(canonical_unbiased(slds, fisher).ops)
    best_val = objective(state, current, w_mat)
    best_ops = [x.copy() for x in current]
    trace = [best_val]
    stall = 0
    converged = False
    iterations = 0
    for t in range(1, cfg.max_iters + 1):
        iterations = t
        grads = subgradient(state, current, w_mat)
        gnorm = math.sqrt(sum(float(np.sum(np.abs(g) ** 2)) for g in grads))
        if gnorm < 1e-14:
            converged = True
            trace.append(best_val)
            break
        alpha = cfg.step / math.sqrt(t)
        stepped = [x - alpha * g / gnorm for x, g in zip(current, grads)]
        current = list(project_unbiased(stepped, state).ops)
        val = objective(state, current, w_mat)
        if val < best_val - cfg.tol * max(1.0, abs(best_val)):
            best_val = val
            best_ops = [x.copy() for x in current]
            stall = 0
        else:
            if val < best_val:
                best_val = val
                best_ops = [x.copy() for x in current]
            stall += 1
        trace.append(best_val)
        if stall >= cfg.patience:
            converged = True
            break
    return MinimizeResult(
        value=best_val,
        ops=tuple(best_ops),
        trace=tuple(trace),
        converged=converged,
        iterations=iterations,
        strategy=cfg.strategy,
    )
