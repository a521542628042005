"""The generic mixed-state precision bound over locally unbiased operators.

For any complete vector set {|u_q>} and any per-vector transpose choice,
nu Tr[W Cov] >= Tr[W Abar_Re] + ||sqrt(W) Abar_Im sqrt(W)||_1 with
Abar = sum_q (A_{u_q} or A_{u_q}^T), (A_u)_{jk} = <u|sqrt(rho) X_j X_k sqrt(rho)|u>.
Keeping every A_u as-is recovers the Holevo functional; for two
parameters, aligning transposes in the eigenbasis of
sqrt(rho)[X_1,X_2]sqrt(rho) recovers the Nagaoka functional.

The Holevo minimum C_H is found as a minimax.  Its functional is
f(X) = max_U Tr[W Re Z] - Tr(U^T sqrt(W) Im Z sqrt(W)) over real
antisymmetric U with ||U|| <= 1, Z_jk = Tr(rho X_j X_k), so
C_H = max_U h(U) where h(U), the minimum over X of a quadratic form, is
one KKT solve.  Each h(U) is a certified lower bound on C_H and hence on
nu Tr[W Cov]; the minimizing X*(U) is feasible, so f(X*(U)) >= C_H is an
upper estimate.  A damped Newton ascent on h with a log-det barrier on
||U|| < 1 closes the interval [h, f].

The Nagaoka functional is minimized by projected subgradient descent.  A
feasible iterate X gives f(X) >= C, an upper estimate of the minimum C,
not a certified lower bound on nu Tr[W Cov]; only the minimum itself is
one.
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
    """Settings for ``minimize_bound``.

    ``max_iters`` caps the Newton steps of the Holevo solver and the
    subgradient iterations of the Nagaoka descent; ``step``, ``tol`` and
    ``patience`` tune the Nagaoka descent only.
    """

    strategy: str = "holevo"  # "holevo" | "nagaoka"
    w: np.ndarray | None = None
    max_iters: int = 5000
    step: float = 0.1  # diminishing step c / sqrt(t)
    tol: float = 1e-7  # relative improvement threshold for convergence
    patience: int = 100  # iterations without improvement before stopping


@dataclass(frozen=True)
class MinimizeResult:
    value: float  # best functional value f at a feasible X: an upper estimate of the minimum
    ops: tuple[np.ndarray, ...]
    trace: tuple[float, ...]  # best f seen, per iteration (non-increasing)
    converged: bool
    iterations: int
    strategy: str
    lower: float | None = None  # certified lower bound on the minimum (Holevo only)
    gap: float | None = None  # value - lower


# --- the Holevo bound as a minimax over U -----------------------------------------

#: The Holevo solver stops once (f - h) <= HOLEVO_RTOL * f.
HOLEVO_RTOL = 1e-10
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
class _HolevoPoint:
    """One evaluation of the inner minimum at U = sum_a u_a E_a."""

    u: np.ndarray
    h: float  # x*^T K(U) x*, the value the Newton ascent follows
    err: float  # error allowance of h: its rounding level plus the residual's effect
    counts: bool  # the KKT residual is small enough for h - err and f(X*) to count
    f: float  # the Holevo functional at X*(U)
    x: np.ndarray  # (n, d^2) coordinates of X*(U)
    grad: np.ndarray  # dh/du
    hess: np.ndarray  # d2h/du2


class _HolevoProblem:
    """The inner minimum h(U) = min_x x^T K(U) x over (I_n (x) F) x = b.

    X_j = sum_a x_ja B_a in the ``_hermitian_basis``, G_ab = Tr(rho B_a B_b),
    the rows of F are Tr(rho B_a) and Tr(d_k rho B_a), and for
    U = sum_a u_a E_a, K(U) = W (x) Re G - (sqrt(W) U sqrt(W)) (x) Im G.
    """

    def __init__(self, state: EvaluatedState, w_mat: np.ndarray):
        frame, _ = _constraint_frame(state)  # raises DegenerateConstraints
        n, d = state.n, state.dim
        self.n, self.nd = n, n * d * d
        self.basis = _hermitian_basis(d)
        rho_b = np.einsum("ij,ajk->aik", state.rho, self.basis)
        self.g = np.einsum("aik,bki->ab", rho_b, self.basis)
        self.w = w_mat
        self.sqrt_w = np.real(linalg.sqrt_psd(w_mat))
        self.e = _antisymmetric_basis(n)
        self.v = np.einsum("ij,ajk,kl->ail", self.sqrt_w, self.e, self.sqrt_w)
        f_mat = np.real(np.einsum("rij,aji->ra", np.array(frame), self.basis))
        a_mat = np.kron(np.eye(n), f_mat)
        size = self.nd + a_mat.shape[0]
        self.kkt = np.zeros((size, size))
        self.kkt[: self.nd, self.nd :] = a_mat.T
        self.kkt[self.nd :, : self.nd] = a_mat
        self.k0 = np.kron(w_mat, np.real(self.g))
        self.rhs = np.zeros(size)
        self.rhs[self.nd :] = np.eye(n + 1)[1:].reshape(-1)  # b_j = e_(j+1)

    def point(self, u: np.ndarray) -> _HolevoPoint:
        nd = self.nd
        vu = np.tensordot(u, self.v, 1)
        k = self.k0 - np.kron(vu, np.imag(self.g))
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
        x = sol[:nd].reshape(self.n, -1)
        z = x @ self.g @ x.T
        re_term = float(np.sum(self.w * np.real(z)))
        h = re_term - float(np.sum(vu * np.imag(z)))
        counts = resid <= KKT_RTOL * (np.linalg.norm(kkt) * sol_norm + np.linalg.norm(self.rhs))
        # Rounding in x^T K x is of order eps |x|^T |K| |x|; the residual
        # moves it by at most ||sol|| ||resid|| to first order.
        xa = np.abs(sol[:nd])
        err = nd * _EPS * float(xa @ np.abs(k) @ xa) + sol_norm * resid
        # ||A||_1 of the real antisymmetric A from the Hermitian iA, also
        # when A is tiny (linalg.trace_norm treats |A| < 1e-12 as Hermitian).
        im_w = 1j * (self.sqrt_w @ np.imag(z) @ self.sqrt_w)
        f = re_term + float(np.sum(np.abs(np.linalg.eigvalsh(im_w))))
        grad = -np.einsum("ajk,jk->a", self.v, np.imag(z))
        # d2h/du_a du_b = -2 (K_a x)^T P (K_b x), P the x-block of the KKT inverse.
        kx = -np.einsum("ajk,kb->ajb", self.v, x @ np.imag(self.g).T).reshape(len(u), nd)
        hess = -2.0 * kx @ (pinv[:nd, :nd] @ kx.T)
        return _HolevoPoint(u, h, err, counts, f, x, grad, (hess + hess.T) / 2.0)


def _log_det_barrier(e: np.ndarray, u: np.ndarray):
    """log det(I - U^T U) with its gradient and Hessian in u; None when ||U|| >= 1."""
    uu = np.tensordot(u, e, 1)
    n_mat = np.eye(uu.shape[0]) + uu @ uu  # I - U^T U, as U^T = -U
    vals = np.linalg.eigvalsh(n_mat)
    if float(np.min(vals)) <= 0.0:
        return None
    n_inv = np.linalg.inv(n_mat)
    grad = -2.0 * np.einsum("aij,ij->a", e, uu @ n_inv)
    # Along E_a, E_b: -2 Tr(N^-1 E_b^T E_a) - 2 Tr(N^-1 (E_b^T U + U^T E_b) N^-1 U^T E_a).
    et = np.swapaxes(e, 1, 2)
    t1 = np.einsum("bij,aji->ab", n_inv @ et, e)
    t2 = np.einsum("bij,aji->ab", n_inv @ (et @ uu + uu.T @ e), n_inv @ uu.T @ e)
    hess = -2.0 * (t1 + t2)
    return float(np.sum(np.log(vals))), grad, (hess + hess.T) / 2.0


def _newton_step(pt: _HolevoPoint, barrier, mu: float) -> tuple[np.ndarray, float]:
    """Newton step for h + mu log det(I - U^T U) and its squared decrement."""
    g = pt.grad + mu * barrier[1]
    step = np.linalg.lstsq(-(pt.hess + mu * barrier[2]), g, rcond=None)[0]
    return step, float(g @ step)


def _line_search(prob: _HolevoProblem, pt: _HolevoPoint, barrier, mu, step, dec):
    """Backtrack until U stays inside ||U|| < 1 and the barrier objective
    rises by a quarter of the predicted gain, up to the rounding level of
    h; None when no step does."""
    phi = pt.h + mu * barrier[0]
    t = 1.0
    for _ in range(30):
        u = pt.u + t * step
        trial_barrier = _log_det_barrier(prob.e, u)
        if trial_barrier is not None:
            trial = prob.point(u)
            gain = trial.h + mu * trial_barrier[0] - phi
            if gain >= 0.25 * t * dec - (pt.err + trial.err):
                return trial, trial_barrier
        t *= 0.5
    return None


def _holevo_newton(state: EvaluatedState, w_mat: np.ndarray, max_steps: int) -> MinimizeResult:
    """max_U h(U) by damped Newton on h + mu log det(I - U^T U), mu -> 0.

    Every point gives a certified h(U) <= C_H and a feasible X*(U) with
    f(X*(U)) >= C_H.  The loop stops when the best pair is within
    HOLEVO_RTOL, when the barrier weight has reached its floor at a
    central point, or when no step raises the barrier objective.
    """
    prob = _HolevoProblem(state, w_mat)
    pt = prob.point(np.zeros(len(prob.e)))  # X*(0) is the canonical start
    barrier = _log_det_barrier(prob.e, pt.u)
    # The barrier moves h by about mu times its parameter 2n; the floor
    # keeps that far below the stopping gap.
    mu = 0.1 * pt.h / (2 * prob.n)
    mu_min = 1e-6 * HOLEVO_RTOL * pt.h
    best_f, best_x, lower = math.inf, pt.x, -math.inf
    trace = []
    steps = 0
    while True:
        if pt.counts:
            lower = max(lower, pt.h - pt.err)
            if pt.f < best_f:
                best_f, best_x = pt.f, pt.x
        trace.append(best_f)
        converged = best_f - lower <= HOLEVO_RTOL * best_f
        if converged or steps == max_steps:
            break
        steps += 1
        step, dec = _newton_step(pt, barrier, mu)
        if dec <= mu:  # near the central point of this mu: lower mu
            if mu == mu_min:
                break
            mu = max(0.1 * mu, mu_min)
            step, dec = _newton_step(pt, barrier, mu)
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
        strategy="holevo",
        lower=lower,
        gap=best_f - lower,
    )


# --- the Nagaoka projected subgradient minimizer ----------------------------------


def _real_term_gradient(
    state: EvaluatedState, ops: Sequence[np.ndarray], w_mat: np.ndarray
) -> list[np.ndarray]:
    n = len(ops)
    rho = state.rho
    sym = [ops[k] @ rho + rho @ ops[k] for k in range(n)]
    return [
        hermitian_part(sum(w_mat[l, k] * sym[k] for k in range(n))) for l in range(n)
    ]


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


def _nagaoka_descent(
    state: EvaluatedState,
    start: Sequence[np.ndarray],
    w_mat: np.ndarray,
    cfg: MinimizeConfig,
) -> MinimizeResult:
    current = list(start)
    best_val = nagaoka_objective(state, current, w_mat)
    best_ops = [x.copy() for x in current]
    trace = [best_val]
    stall = 0
    converged = False
    iterations = 0
    for t in range(1, cfg.max_iters + 1):
        iterations = t
        grads = _nagaoka_subgradient(state, current, w_mat)
        gnorm = math.sqrt(sum(float(np.sum(np.abs(g) ** 2)) for g in grads))
        if gnorm < 1e-14:
            converged = True
            trace.append(best_val)
            break
        alpha = cfg.step / math.sqrt(t)
        stepped = [x - alpha * g / gnorm for x, g in zip(current, grads)]
        current = list(project_unbiased(stepped, state).ops)
        val = nagaoka_objective(state, current, w_mat)
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
        strategy="nagaoka",
    )


# --- entry point --------------------------------------------------------------------


def minimize_bound(
    state: EvaluatedState,
    slds: DerivativeSet,
    fisher: FisherData,
    config: MinimizeConfig | None = None,
) -> MinimizeResult:
    """Minimize the chosen bound functional over locally unbiased sets.

    Both strategies start from the canonical X_j = sum_k (F_Q^-1)_{jk} L_k
    and return a feasible X with its value f, an upper estimate of the
    minimum.  The Holevo strategy also returns ``lower``, a certified
    lower bound on the minimum C_H and hence on nu Tr[W Cov], and
    converges when ``gap`` = f - lower <= HOLEVO_RTOL f.  The Nagaoka
    strategy is a projected subgradient descent and certifies nothing.
    Non-convergence is reported via the flag, never as an error.
    """
    cfg = config or MinimizeConfig()
    n = fisher.n
    w_mat = _check_weight(cfg.w, n)
    if cfg.strategy == "holevo":
        return _holevo_newton(state, w_mat, cfg.max_iters)
    if cfg.strategy == "nagaoka":
        if n != 2:
            raise InvalidN("the Nagaoka strategy is defined for n = 2")
        return _nagaoka_descent(state, canonical_unbiased(state, slds, fisher).ops, w_mat, cfg)
    raise InvalidN(f"unknown strategy {cfg.strategy!r}")
