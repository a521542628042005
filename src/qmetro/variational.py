"""The generic mixed-state precision bound over locally unbiased operators.

For any complete vector set {|u_q>} and any per-vector transpose choice,
nu Tr[W Cov] >= Tr[W Abar_Re] + ||sqrt(W) Abar_Im sqrt(W)||_1 with
Abar = sum_q (A_{u_q} or A_{u_q}^T), (A_u)_{jk} = <u|sqrt(rho) X_j X_k sqrt(rho)|u>.
Keeping every A_u as-is recovers the Holevo functional; for two
parameters, aligning transposes in the eigenbasis of
sqrt(rho)[X_1,X_2]sqrt(rho) recovers the Nagaoka functional.

Both minima are found as a minimax.  Each functional is
f(X) = Tr[W Re Z] + max_M (a term linear in M and quadratic in X) over a
dual matrix M with ||M|| <= 1, Z_jk = Tr(rho X_j X_k): a real
antisymmetric n x n M for Holevo, whose term is -Tr(M^T sqrt(W) Im Z sqrt(W)),
and a Hermitian d x d M for Nagaoka (n = 2), whose term is
kappa Im Tr(sqrt(rho) M sqrt(rho) X_1 X_2), kappa = 2 sqrt(det W).  So the
minimum C = max_M h(M), where h(M), the minimum over X of a quadratic
form, is one KKT solve.  Each h(M) is a certified lower bound on C and
hence on nu Tr[W Cov]; the minimizing X*(M) is feasible, so f(X*(M)) >= C
is an upper estimate.  One damped Newton ascent on h with a log-det
barrier on ||M|| < 1 closes the interval [h, f] for either functional.
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


def canonical_unbiased(
    state: EvaluatedState, slds: DerivativeSet, fisher: FisherData
) -> LocallyUnbiasedSet:
    """The canonical feasible tuple X_j = sum_k (F_Q^-1)_{jk} L_k, projected
    onto the constraints, which it misses by up to 1e-7 for near-singular rho."""
    n = fisher.n
    finv = np.linalg.inv(fisher.f_q)
    ops = [sum(finv[j, k] * slds.ops[k] for k in range(n)) for j in range(n)]
    return project_unbiased(ops, state)


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


# --- objectives -------------------------------------------------------------------


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


@dataclass(frozen=True)
class MinimizeConfig:
    """Settings for ``minimize_bound``: the functional (``"holevo"`` or,
    for two parameters, ``"nagaoka"``), the weight W (default I) and the
    cap on Newton steps."""

    strategy: str = "holevo"
    w: np.ndarray | None = None
    max_iters: int = 5000


@dataclass(frozen=True)
class MinimizeResult:
    value: float  # best functional value f at a feasible X: an upper estimate of the minimum
    ops: tuple[np.ndarray, ...]
    trace: tuple[float, ...]  # best f seen, per iteration (non-increasing)
    converged: bool
    iterations: int
    strategy: str
    lower: float  # certified lower bound on the minimum
    gap: float  # value - lower


# --- both bounds as a minimax over a dual matrix M, ||M|| <= 1 ---------------------

#: The Newton solver stops once (f - h) <= MINIMAX_RTOL * f.
MINIMAX_RTOL = 1e-10
#: A point counts only when its KKT residual, relative to
#: ||M|| ||sol|| + ||rhs||, is below this (a stable solve leaves ~1e-16).
KKT_RTOL = 1e-10
_EPS = float(np.finfo(float).eps)


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis, Tr(B_a B_b) = delta_ab, of the d x d Hermitian
    matrices, stacked with shape (d^2, d, d)."""
    out = np.zeros((d * d, d, d), dtype=np.complex128)
    r = 1.0 / math.sqrt(2.0)
    a = d
    for k in range(d):
        out[k, k, k] = 1.0
        for l in range(k + 1, d):
            out[a, k, l] = out[a, l, k] = r
            out[a + 1, k, l], out[a + 1, l, k] = -1j * r, 1j * r
            a += 2
    return out


def _antisymmetric_basis(n: int) -> np.ndarray:
    """E_a = e_j e_k^T - e_k e_j^T for j < k, stacked (n(n-1)/2, n, n)."""
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    out = np.zeros((len(pairs), n, n))
    for a, (j, k) in enumerate(pairs):
        out[a, j, k], out[a, k, j] = 1.0, -1.0
    return out


@dataclass(frozen=True)
class _MinimaxPoint:
    """One evaluation of the inner minimum at M = sum_a y_a E_a."""

    y: np.ndarray
    h: float  # x*^T K(y) x*, the value the Newton ascent follows
    err: float  # error allowance of h: its rounding level plus the residual's effect
    counts: bool  # the KKT residual is small enough for h - err and f(X*) to count
    f: float  # the bound functional at X*(y)
    x: np.ndarray  # (n, d^2) coordinates of X*(y)
    grad: np.ndarray  # dh/dy
    hess: np.ndarray  # d2h/dy2


class _MinimaxProblem:
    """The inner minimum h(y) = min_x x^T K(y) x over (I_n (x) F) x = b.

    X_j = sum_a x_ja B_a in the ``_hermitian_basis``, G_ab = Tr(rho B_a B_b),
    the rows of F are Tr(rho B_a) and Tr(d_k rho B_a), and
    K(y) = W (x) Re G - sum_a y_a D_a.  The dual directions D_a pair with
    a basis E_a of the dual matrices M = sum_a y_a E_a, ||M|| <= 1:

    - Holevo: E_a real antisymmetric n x n, D_a = (sqrt(W) E_a sqrt(W)) (x) Im G,
      as max_U -Tr(U^T A) = ||A||_1 for the antisymmetric A = sqrt(W) Im Z sqrt(W);
    - Nagaoka (n = 2): E_b = B_b, D_b = (kappa/2) J (x) Im G^(b) with
      G^(b)_ac = Tr(sqrt(rho) B_b sqrt(rho) B_a B_c), J = [[0, 1], [-1, 0]] and
      kappa = 2 sqrt(det W), as max_H Im Tr(sqrt(rho) H sqrt(rho) X_1 X_2) is
      ||sqrt(rho)[X_1, X_2]sqrt(rho)||_1 / 2 over Hermitian H, ||H|| <= 1.

    In both, the second term of f is max_M sum_a y_a x^T D_a x, the trace
    norm of sum_a (x^T D_a x) E_a / Tr(E_a^+ E_a).
    """

    def __init__(self, state: EvaluatedState, w_mat: np.ndarray, strategy: str):
        frame, _ = _constraint_frame(state)  # raises DegenerateConstraints
        n, d = state.n, state.dim
        self.n, self.nd = n, n * d * d
        self.basis = _hermitian_basis(d)
        rho_b = np.einsum("ij,ajk->aik", state.rho, self.basis)
        self.g = np.einsum("aik,bki->ab", rho_b, self.basis)
        self.w = w_mat
        if strategy == "holevo":
            sqrt_w = np.real(linalg.sqrt_psd(w_mat))
            self.e, self.e_norm = _antisymmetric_basis(n), 2.0
            v = np.einsum("ij,ajk,kl->ail", sqrt_w, self.e, sqrt_w)
            d_ab = np.einsum("ajk,bc->ajbkc", v, np.imag(self.g))
        else:
            self.e, self.e_norm = self.basis, 1.0
            s = state.sqrt_rho
            g_b = np.einsum("bki,aij,cjk->bac", s @ self.basis @ s, self.basis, self.basis,
                            optimize=True)
            kappa = 2.0 * math.sqrt(max(float(np.linalg.det(w_mat)), 0.0))
            j_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
            d_ab = 0.5 * kappa * np.einsum("jk,bac->bjakc", j_mat, np.imag(g_b))
        self.d = d_ab.reshape(-1, self.nd, self.nd)  # the stack of D_a
        f_mat = np.real(np.einsum("rij,aji->ra", np.array(frame), self.basis))
        a_mat = np.kron(np.eye(n), f_mat)
        size = self.nd + a_mat.shape[0]
        self.kkt = np.zeros((size, size))
        self.kkt[: self.nd, self.nd :] = a_mat.T
        self.kkt[self.nd :, : self.nd] = a_mat
        self.k0 = np.kron(w_mat, np.real(self.g))
        self.rhs = np.zeros(size)
        self.rhs[self.nd :] = np.eye(n + 1)[1:].reshape(-1)  # b_j = e_(j+1)

    def point(self, y: np.ndarray) -> _MinimaxPoint:
        nd = self.nd
        k = self.k0 - np.tensordot(y, self.d, 1)
        kkt = self.kkt.copy()
        kkt[:nd, :nd] = k
        # Least squares through the pseudo-inverse, as K is singular for a
        # rank-deficient rho.  One refinement step wins back the accuracy
        # an ill-conditioned K costs; the same matrix gives the Hessian.
        pinv = np.linalg.pinv(kkt, hermitian=True)
        sol = pinv[:, nd:] @ self.rhs[nd:]
        sol = sol + pinv @ (self.rhs - kkt @ sol)
        resid = float(np.linalg.norm(kkt @ sol - self.rhs))
        sol_norm = float(np.linalg.norm(sol))
        x = sol[:nd]
        dx = self.d @ x  # D_a x
        grad = -(dx @ x)  # dh/dy_a = -x^T D_a x
        xs = x.reshape(self.n, -1)
        re_term = float(np.sum(self.w * np.real(xs @ self.g @ xs.T)))
        h = re_term + float(y @ grad)
        counts = resid <= KKT_RTOL * (np.linalg.norm(kkt) * sol_norm + np.linalg.norm(self.rhs))
        # Rounding in x^T K x is of order eps |x|^T |K| |x|; the residual
        # moves it by at most ||sol|| ||resid|| to first order.
        xa = np.abs(x)
        err = nd * _EPS * float(xa @ np.abs(k) @ xa) + sol_norm * resid
        # The trace norm by SVD, exact also for tiny antisymmetric matrices
        # (linalg.trace_norm treats |A| < 1e-12 as Hermitian).
        dual = np.tensordot(-grad, self.e, 1)
        f = re_term + float(np.sum(np.linalg.svd(dual, compute_uv=False))) / self.e_norm
        # d2h/dy_a dy_b = -2 (D_a x)^T P (D_b x), P the x-block of the KKT inverse.
        hess = -2.0 * dx @ (pinv[:nd, :nd] @ dx.T)
        return _MinimaxPoint(y, h, err, counts, f, xs, grad, (hess + hess.T) / 2.0)


def _log_det_barrier(e: np.ndarray, y: np.ndarray):
    """log det(I - M^+ M), M = sum_a y_a E_a, with its gradient and Hessian
    in y; None when ||M|| >= 1."""
    m = np.tensordot(y, e, 1)
    m_dag, e_dag = dagger(m), dagger(e)
    n_mat = np.eye(m.shape[0]) - m_dag @ m
    vals = np.linalg.eigvalsh(n_mat)
    if float(np.min(vals)) <= 0.0:
        return None
    n_inv = np.linalg.inv(n_mat)
    grad = -2.0 * np.real(np.einsum("aij,ji->a", e, n_inv @ m_dag))
    # Along E_a, E_b: -2 Re Tr(N^-1 E_b^+ E_a) - 2 Re Tr(N^-1 (E_b^+ M + M^+ E_b) N^-1 M^+ E_a).
    t1 = np.einsum("bij,aji->ab", n_inv @ e_dag, e)
    t2 = np.einsum("bij,aji->ab", n_inv @ (e_dag @ m + m_dag @ e), n_inv @ m_dag @ e)
    hess = -2.0 * np.real(t1 + t2)
    return float(np.sum(np.log(vals))), grad, (hess + hess.T) / 2.0


def _newton_step(pt: _MinimaxPoint, barrier, mu: float) -> tuple[np.ndarray, float, float]:
    """Newton step for h + mu log det(I - M^+ M), its squared decrement,
    and the squared gradient norm in the barrier's local norm over mu.

    The last measures centrality: a point with barrier parameter nu and
    that norm at most mu has f - h <= mu (2 nu + 2 sqrt(nu)).  The
    decrement cannot stand in for it, because it also counts the
    curvature of h, which grows without bound where K(y) turns singular
    at the optimum (the Nagaoka minimum of some d >= 3 families)."""
    g = pt.grad + mu * barrier[1]
    step = np.linalg.lstsq(-(pt.hess + mu * barrier[2]), g, rcond=None)[0]
    cen = float(g @ np.linalg.lstsq(-barrier[2], g, rcond=None)[0]) / mu
    return step, float(g @ step), cen


def _line_search(prob: _MinimaxProblem, pt: _MinimaxPoint, barrier, mu, step, dec):
    """Backtrack until M stays inside ||M|| < 1 and the barrier objective
    rises by a quarter of the predicted gain, up to the rounding level of
    h; None when no step does."""
    phi = pt.h + mu * barrier[0]
    t = 1.0
    for _ in range(30):
        y = pt.y + t * step
        trial_barrier = _log_det_barrier(prob.e, y)
        if trial_barrier is not None:
            trial = prob.point(y)
            gain = trial.h + mu * trial_barrier[0] - phi
            if gain >= 0.25 * t * dec - (pt.err + trial.err):
                return trial, trial_barrier
        t *= 0.5
    return None


def _minimax_newton(
    state: EvaluatedState, w_mat: np.ndarray, strategy: str, max_steps: int
) -> MinimizeResult:
    """max_y h(y) by damped Newton on h + mu log det(I - M^+ M), mu -> 0.

    Every point gives a certified h(y) below the minimum C and a feasible
    X*(y) with f(X*(y)) >= C.  The loop stops when the best pair is within
    MINIMAX_RTOL, when the barrier weight has reached its floor at a
    central point or with no gain left above the rounding level of h, or
    when no step raises the barrier objective.
    """
    prob = _MinimaxProblem(state, w_mat, strategy)
    pt = prob.point(np.zeros(len(prob.e)))  # X*(0) is the canonical start
    barrier = _log_det_barrier(prob.e, pt.y)
    # The barrier moves h by about mu times its parameter, twice the side
    # of M; the floor keeps that far below the stopping gap.
    mu = 0.1 * pt.h / (2 * prob.e.shape[1])
    mu_min = 1e-6 * MINIMAX_RTOL * pt.h
    best_f, best_x, lower = math.inf, pt.x, -math.inf
    trace = []
    steps = 0
    while True:
        if pt.counts:
            lower = max(lower, pt.h - pt.err)
            if pt.f < best_f:
                best_f, best_x = pt.f, pt.x
        trace.append(best_f)
        converged = best_f - lower <= MINIMAX_RTOL * best_f
        if converged or steps == max_steps:
            break
        steps += 1
        step, dec, cen = _newton_step(pt, barrier, mu)
        # Near the central point of this mu, or no gain left above the
        # rounding level of h: lower mu.
        if cen <= mu or dec <= pt.err:
            if mu == mu_min:
                break
            mu = max(0.1 * mu, mu_min)
            step, dec, cen = _newton_step(pt, barrier, mu)
        moved = _line_search(prob, pt, barrier, mu, step, dec)
        if moved is None:
            break
        pt, barrier = moved
    return MinimizeResult(
        value=best_f,
        ops=tuple(np.tensordot(best_x, prob.basis, 1)),
        trace=tuple(trace),
        converged=converged,
        iterations=steps,
        strategy=strategy,
        lower=lower,
        gap=best_f - lower,
    )


# --- entry point --------------------------------------------------------------------


def minimize_bound(
    state: EvaluatedState,
    slds: DerivativeSet,
    fisher: FisherData,
    config: MinimizeConfig | None = None,
) -> MinimizeResult:
    """Minimize the chosen bound functional over locally unbiased sets.

    Both strategies run the same Newton solver from the canonical
    X_j = sum_k (F_Q^-1)_{jk} L_k and return a feasible X with its value
    f, an upper estimate of the minimum, and ``lower``, a certified lower
    bound on the minimum (C_H for Holevo, the Nagaoka bound for n = 2) and
    hence on nu Tr[W Cov].  They converge when ``gap`` = f - lower
    <= MINIMAX_RTOL f.  Non-convergence is reported via the flag, never
    as an error.
    """
    cfg = config or MinimizeConfig()
    n = fisher.n
    w_mat = _check_weight(cfg.w, n)
    if cfg.strategy not in ("holevo", "nagaoka"):
        raise InvalidN(f"unknown strategy {cfg.strategy!r}")
    if cfg.strategy == "nagaoka" and n != 2:
        raise InvalidN("the Nagaoka strategy is defined for n = 2")
    return _minimax_newton(state, w_mat, cfg.strategy, cfg.max_iters)
