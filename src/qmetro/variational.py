"""The generic mixed-state precision bound over locally unbiased operators.

For any complete vector set {|u_q>}, the columns of a basis array, and
any per-vector transpose choice s_q = +1 (as is) or -1 (transposed),
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
minimum C = max_M h(M), where h(M) is the minimum over X of a quadratic
form under the unbiasedness constraints.  The constraints do not depend
on M, so they are solved once.  Neither does the form's kernel on their
null space (ker W, and the X with X sqrt(rho) = 0), so it is projected
out once too; on what remains the form is positive definite for
||M|| < 1, and each h(M) is one Cholesky factorization.  Each h(M) is a
certified lower bound on C and hence on nu Tr[W Cov]; the minimizing
X*(M) is feasible, so f(X*(M)) >= C is an upper estimate.  One damped Newton
ascent on h closes the interval [h, f] for either functional.  Its
barrier on ||M|| < 1 is the LMI log det [[I, M], [M^+, I]], equal to
log det(I - M^+ M): with M = sum_a y_a E_a the matrix is affine in y, so
one eigendecomposition gives the value, both derivatives and, along a
Newton step, the exact distance to ||M|| = 1, and the line search never
evaluates a point outside; a trial point whose form fails to factor
lies outside to working precision, and the step is halved as for one
past the boundary.  Three exits save Newton steps.  Where no free
coordinates are left, h is affine and its maximum is a closed form;
elsewhere a pure Newton step on h is tried first inside the barrier's
Dikin ellipsoid, which closes an optimum inside the ball; and once the
ascent is central at ||M|| >= 1/2, an endgame projects its point onto
the face ||M|| = 1 and takes Riemannian Newton steps for max h on that
face while each raises the certified lower end, which closes an optimum
on the boundary.  The face's gauge g = ||M|| and its derivatives come
from the barrier's eigensystem.  Every exit keeps the certificate: every
``lower`` is an h at a point with ||M|| < 1, every value f at a feasible
X.  Everything that does not depend on M (the constraint solution, the
reduced quadratic form's parts, the LMI stack, sqrt(W)) is built once
per problem.  A Newton system singular to working
precision, as it can turn near ||M|| = 1, ends the ascent with the best
interval found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    Signs,
    _signs_from_values,
    compute_fbar_im,
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


def _constraint_frame(state: EvaluatedState) -> tuple[np.ndarray, np.ndarray]:
    """The stack rho, d_1 rho, ..., d_n rho and its Gram matrix Re Tr(V_a V_b)."""
    frame = np.array([state.rho, *state.derivs])
    gram = np.real(np.einsum("aij,bji->ab", frame, frame))
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
    """(A_u, B_u, F_u) blocks of S_u = [[A, B], [B+, F]] >= 0.

    Nothing in the package calls it: it is the per-vector reference that
    ``tests/test_variational.py`` checks the positivity of S_u and the
    sums of B_u and F_u against."""
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


def _check_weight(w: np.ndarray | None, n: int) -> tuple[np.ndarray, linalg.EigenSystem]:
    """The weight as a real symmetric n x n matrix with its eigensystem, which
    serves both the PSD check and sqrt(W); InvalidWeight unless W is PSD."""
    if w is None:
        w = np.eye(n)
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (n, n):
        raise InvalidWeight(f"weight has shape {w.shape}, expected {(n, n)}")
    herm = hermitian_part(w)
    w_mat = np.real(herm)
    eigen = linalg.eigh(w_mat)
    # Only Re W enters the bounds, but a complex W is checked as given.
    vals = np.linalg.eigvalsh(herm) if np.any(np.imag(herm)) else eigen.values
    if float(np.min(vals)) < -1e-10 * max(1.0, float(np.max(np.abs(vals)))):
        raise InvalidWeight(f"weight matrix has eigenvalue {float(np.min(vals)):.3e}")
    return w_mat, eigen


def evaluate_general_bound(
    x_set: LocallyUnbiasedSet | Sequence[np.ndarray],
    state: EvaluatedState,
    basis: np.ndarray | None = None,
    signs: Signs | None = None,
    w: np.ndarray | None = None,
) -> float:
    """Tr[W Abar_Re] + ||sqrt(W) Abar_Im sqrt(W)||_1 for a basis/sign choice.

    The functional evaluated at a feasible ``x_set``; its minimum over
    feasible sets, not the value at any one set, bounds nu Tr[W Cov]
    from below.  With all signs +1 (as is, the default) the value is the
    Holevo functional (and is then basis-independent).

    Abar_Re = Re Z(X) for any resolution of the identity, and Abar_Im is
    the p = 1 F-bar aggregate of the X_j from :func:`compute_fbar_im` over
    the columns of ``basis`` (computational by default) with ``signs`` a
    sequence of +-1 or AlignEntry(j, k).
    """
    ops = x_set.ops if isinstance(x_set, LocallyUnbiasedSet) else tuple(x_set)
    w_mat, w_eigen = _check_weight(w, len(ops))
    if signs is None:
        signs = [1] * (state.dim if basis is None else np.shape(basis)[-1])
    a_im = compute_fbar_im(state, ops, 1, basis, signs).entries
    a_re = np.real(z_matrix(state, ops))
    sqrt_w = linalg.sqrt_psd(w_mat, eigen=w_eigen)
    return float(np.sum(w_mat * a_re)) + linalg.trace_norm(sqrt_w @ a_im @ sqrt_w)


def nagaoka_alignment(
    state: EvaluatedState, ops: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis of sqrt(rho)[X_1, X_2]sqrt(rho), as columns, with the
    sign-aligned +-1 choices.

    Feeding the result to evaluate_general_bound yields the Nagaoka
    functional Tr(rho X_1^2) + Tr(rho X_2^2) + ||sqrt(rho)[X_1,X_2]sqrt(rho)||_1
    at W = I.  Two-parameter sets only.  This is the p = 1 case of the
    F-bar commutator eigenbasis with the same sign rule.
    """
    if len(ops) != 2:
        raise InvalidN(f"Nagaoka alignment is a two-parameter construction, got n={len(ops)}")
    s = state.sqrt_rho
    es = linalg.eigh(-1j * s @ linalg.commutator(ops[0], ops[1]) @ s)  # the commutator is i H
    return es.vectors, _signs_from_values(es.values / 2.0)


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
    """Tr[W Re Z(X)] + ||sqrt(W) J sqrt(W)||_1 1/2 ||sqrt(rho)[X_1, X_2]sqrt(rho)||_1
    at a two-parameter set, J = [[0, 1], [-1, 0]].  Nothing in the package calls it: it is the direct
    reference that ``tests/test_variational.py`` compares the Nagaoka
    values of :func:`minimize_bound` against."""
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


class _MinimaxPoint(NamedTuple):
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

    The constraints do not depend on y, so they are solved once: with the
    SVD of F, which has full row rank n + 1, x = x0 + N z for the
    minimal-norm solution x0 and an orthonormal basis N of the null space
    I_n (x) N_F.  On that space K_0 = K(0) is W (x) A, A = N_F^T Re G N_F.
    Its kernel, ker W together with the X with X sqrt(rho) = 0, is a
    kernel of every K(y): K(y) is PSD for ||M|| <= 1 (for Holevo,
    x^T K(y) x = Tr[(I - iM) sqrt(W) Z sqrt(W)]; for Nagaoka, by
    Cauchy-Schwarz on the X' = sqrt(W) X) and
    K(y) = (1 - ||M||) K_0 + ||M|| K(y / ||M||), so the kernel cannot move
    and the range stays positive definite for ||M|| < 1.  N therefore spans
    range(W) (x) N_F range(A) only, read off the eigensystems of W and A
    with the cutoff dim eps max, and N^T K_0 N is their diagonal.  Each
    point minimizes over z alone, N^T K(y) N z = -N^T K(y) x0, by one
    Cholesky factorization; the system is affine in y, and its
    y-independent parts N^T K_0 N, N^T D_a N, N^T K_0 x0 and N^T D_a x0
    are built here.
    When N has no columns (n = d^2 - 1 Holevo problems, or a kernel that
    takes all the freedom), X*(y) = x0 for every y and h is affine in y;
    the solver then reads its maximum off :func:`_affine_top`.  The
    Kronecker products above are formed by broadcasting (:func:`_kron`).
    ``lmi`` is the stack F_a = [[0, E_a], [E_a^+, 0]] of the barrier's
    A(y) = I + sum_a y_a F_a = [[I, M], [M^+, I]].
    """

    def __init__(
        self,
        state: EvaluatedState,
        weight: tuple[np.ndarray, linalg.EigenSystem],
        strategy: str,
    ):
        frame, _ = _constraint_frame(state)  # raises DegenerateConstraints
        w_mat, w_eigen = weight
        n, d = state.n, state.dim
        self.n, self.nd = n, n * d * d
        self.basis = _hermitian_basis(d)
        rho_b = np.einsum("ij,ajk->aik", state.rho, self.basis)
        g = np.einsum("aik,bki->ab", rho_b, self.basis)
        if strategy == "holevo":
            sqrt_w = np.real(linalg.sqrt_psd(w_mat, eigen=w_eigen))
            self.e, self.e_norm = _antisymmetric_basis(n), 2.0
            v = np.einsum("ij,ajk,kl->ail", sqrt_w, self.e, sqrt_w)
            d_ab = np.einsum("ajk,bc->ajbkc", v, np.imag(g))
        else:
            self.e, self.e_norm = self.basis, 1.0
            s = state.sqrt_rho
            g_b = np.einsum("bki,aij,cjk->bac", s @ self.basis @ s, self.basis, self.basis,
                            optimize=True)
            kappa = 2.0 * math.sqrt(max(float(np.linalg.det(w_mat)), 0.0))
            j_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
            d_ab = 0.5 * kappa * np.einsum("jk,bac->bjakc", j_mat, np.imag(g_b))
        side = self.e.shape[1]
        self.lmi = np.zeros((len(self.e), 2 * side, 2 * side), dtype=self.e.dtype)
        self.lmi[:, :side, side:] = self.e
        self.lmi[:, side:, :side] = dagger(self.e)
        self.d = d_ab.reshape(-1, self.nd, self.nd)  # the stack of D_a
        self.k0 = _kron(w_mat, np.real(g))
        f_mat = np.real(np.einsum("rij,aji->ra", frame, self.basis))
        u, sv, vt = np.linalg.svd(f_mat)
        self.f_plus = (vt[: n + 1].T / sv) @ u.T
        null_f = vt[n + 1 :].T
        # Only the range of W (x) A, A = N_F^T Re G N_F, is kept (see above).
        w_vals, w_vecs = _numerical_range(w_eigen.values, np.real(w_eigen.vectors))
        a_vals, a_vecs = _numerical_range(*np.linalg.eigh(null_f.T @ np.real(g) @ null_f))
        self.null = _kron(w_vecs, null_f @ a_vecs)
        targets = np.eye(n + 1)[1:]  # b_j = e_(j+1)
        self.x0 = self.f_plus[:, 1:].T.reshape(-1)
        self.k_r0 = np.diag(_kron(w_vals[None], a_vals[None])[0])
        self.d_r = self.null.T @ self.d @ self.null
        self.rhs0 = -(self.null.T @ (self.k0 @ self.x0))
        self.d_rx0 = (self.d @ self.x0) @ self.null
        # The constraint residual of x0 is the one every X*(y) inherits
        # (F N_F vanishes to rounding); it joins the stationarity residual
        # in each point's residual test and error allowance.
        self.con_resid = float(np.linalg.norm(self.x0.reshape(n, -1) @ f_mat.T - targets))
        self.a_norm_sq = n * float(np.sum(f_mat**2))
        self.b_norm = math.sqrt(n)

    def point(self, y: np.ndarray) -> _MinimaxPoint:
        k = self.k0 - _combine(y, self.d)
        k_r = self.k_r0 - _combine(y, self.d_r)
        rhs = self.rhs0 + y @ self.d_rx0
        # K_r = L L^T: positive definite for ||M|| < 1, so a LinAlgError
        # here says y lies outside to working precision.  One refinement
        # step wins back the accuracy an ill-conditioned K_r costs; the
        # same L^-1 gives the Hessian.
        l_inv = np.linalg.inv(np.linalg.cholesky(k_r))
        z = l_inv.T @ (l_inv @ rhs)
        z = z + l_inv.T @ (l_inv @ (rhs - k_r @ z))
        x = self.x0 + self.null @ z
        kx = k @ x
        # The residual of the bordered system [[K, A^T], [A, 0]] at (x, lam)
        # with the least-squares multiplier lam: its first block is N^T K x
        # after lam is taken off, its second the constraint residual of x0.
        lam = kx.reshape(self.n, -1) @ self.f_plus
        resid = math.hypot(float(np.linalg.norm(k_r @ z - rhs)), self.con_resid)
        sol_norm = math.hypot(float(np.linalg.norm(x)), float(np.linalg.norm(lam)))
        dx = self.d @ x  # D_a x
        grad = -(dx @ x)  # dh/dy_a = -x^T D_a x
        h = float(x @ kx)
        re_term = h - float(y @ grad)  # x^T (W (x) Re G) x = Tr(W Re Z)
        kkt_norm = math.sqrt(float(k.ravel() @ k.ravel()) + 2.0 * self.a_norm_sq)
        counts = resid <= KKT_RTOL * (kkt_norm * sol_norm + self.b_norm)
        # Rounding in x^T K x is of order eps |x|^T |K| |x|; the residual
        # moves it by at most ||sol|| ||resid|| to first order.
        xa = np.abs(x)
        err = self.nd * _EPS * float(xa @ np.abs(k) @ xa) + sol_norm * resid
        # The dual matrix's trace norm, the sum of its singular values.
        dual = _combine(-grad, self.e)
        f = re_term + float(np.sum(np.linalg.svd(dual, compute_uv=False))) / self.e_norm
        # d2h/dy_a dy_b = -2 (N^T D_a x)^T K_r^-1 (N^T D_b x) = -2 (G^T G)_ab.
        g_mat = l_inv @ (dx @ self.null).T
        hess = -2.0 * g_mat.T @ g_mat
        return _MinimaxPoint(y, h, err, counts, f, x.reshape(self.n, -1), grad, hess)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices as one broadcast product reshaped in place:
    the same products, so the same bits, without np.kron's set-up for
    arrays of any rank."""
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _numerical_range(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of a PSD matrix above its rank tolerance,
    dim eps max|value|."""
    keep = values > len(values) * _EPS * np.max(np.abs(values), initial=0.0)
    return values[keep], vectors[:, keep]


def _combine(y: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_a y_a S_a over a stack of matrices, as one matrix-vector product
    on the flattened stack."""
    return (y @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


class _Barrier(NamedTuple):
    """log det A(y) with its gradient and Hessian in y, the whitened stack
    V^+ F_a V, V = Q Lambda^(-1/2), and the eigensystem A(y) = Q Lambda Q^+
    (``vals`` ascending, ``vecs`` = Q) that gives them."""

    value: float
    grad: np.ndarray
    hess: np.ndarray
    white: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray


def _log_det_barrier(lmi: np.ndarray, y: np.ndarray) -> _Barrier | None:
    """log det A(y) for A(y) = I + sum_a y_a F_a = [[I, M], [M^+, I]], which
    equals log det(I - M^+ M); None when ||M|| >= 1."""
    return _barrier(lmi, *np.linalg.eigh(np.eye(lmi.shape[1]) + _combine(y, lmi)))


def _barrier(lmi: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> _Barrier | None:
    """The barrier from the eigensystem of A(y); None unless A(y) > 0.

    One eigendecomposition of A gives the feasibility test, the value
    sum log Lambda and, through the whitened F~_a = V^+ F_a V, the
    gradient Tr F~_a and the Hessian -Tr(F~_a F~_b)."""
    if float(vals[0]) <= 0.0:
        return None
    v = vecs / np.sqrt(vals)
    white = dagger(v) @ lmi @ v
    flat = white.reshape(len(lmi), -1)
    hess = -np.real(flat @ dagger(flat))  # Tr(F~_a F~_b) = <F~_b, F~_a>: both Hermitian
    grad = np.real(np.trace(white, axis1=1, axis2=2))
    return _Barrier(float(np.sum(np.log(vals))), grad, (hess + hess.T) / 2.0, white, vals, vecs)


def _step_to_boundary(barrier: _Barrier, step: np.ndarray) -> float:
    """The t > 0 at which y + t step reaches ||M|| = 1, inf if it never does:
    A(y + t step) = V^-+ (I + t sum_a step_a F~_a) V^-1 is positive
    definite while 1 + t lambda_min > 0."""
    low = float(np.linalg.eigvalsh(_combine(step, barrier.white))[0])
    return -1.0 / low if low < 0.0 else math.inf


def _newton_step(
    pt: _MinimaxPoint, barrier: _Barrier, mu: float
) -> tuple[np.ndarray, float, float, np.ndarray]:
    """Newton step for h + mu log det A(y), its squared decrement, the
    squared gradient norm in the barrier's local norm over mu, and the pure
    Newton step -(d2h)^-1 dh of h alone.

    The third measures centrality: a point with barrier parameter nu and
    that norm at most mu has f - h <= mu (2 nu + 2 sqrt(nu)).  The
    decrement cannot stand in for it, because it also counts the
    curvature of h, which grows without bound where K(y) turns singular
    at the optimum (the Nagaoka minimum of some d >= 3 families).
    The pure step is None where d2h alone is singular to working
    precision, as it is wherever h has fewer free coordinates than y (the
    Nagaoka problem at d = 2).  Raises LinAlgError when either of the
    other two systems is."""
    g = pt.grad + mu * barrier.grad
    # Inside the ball -d2b is positive definite, -d2h semidefinite: one stacked solve.
    lhs = -np.stack([pt.hess + mu * barrier.hess, barrier.hess, pt.hess])
    rhs = np.stack([g, g, pt.grad])[..., None]
    try:
        step, inv_g, pure = np.linalg.solve(lhs, rhs)[..., 0]
    except np.linalg.LinAlgError:
        (step, inv_g), pure = np.linalg.solve(lhs[:2], rhs[:2])[..., 0], None
    return step, float(g @ step), float(g @ inv_g) / mu, pure


def _trial(prob: _MinimaxProblem, y: np.ndarray) -> tuple[_MinimaxPoint, _Barrier] | None:
    """The point and barrier at y; None when y lies outside, by the barrier's
    eigensolve or by a K_r(y) that fails to factor (only where rounding puts
    a point just inside ||M|| = 1 outside)."""
    barrier = _log_det_barrier(prob.lmi, y)
    if barrier is None:
        return None
    try:
        return prob.point(y), barrier
    except np.linalg.LinAlgError:
        return None


def _pure_step(prob: _MinimaxProblem, pt: _MinimaxPoint, barrier: _Barrier, mu, pure):
    """y + pure, the Newton step on h alone, when it lies in the barrier's
    Dikin ellipsoid of radius 1/2, raises h by a quarter of its predicted
    gain and does not lower h + mu log det A(y), each up to the rounding
    level of h; None otherwise.  Near an optimum inside the ball it
    converges quadratically, where the barrier steps take one decade of mu
    each."""
    # The ellipsoid of radius 1 lies inside ||M|| < 1; the test also turns
    # away a step that is not finite.
    if pure is None or not -float(pure @ barrier.hess @ pure) <= 0.25:
        return None
    moved = _trial(prob, pt.y + pure)
    if moved is None:
        return None
    trial, trial_barrier = moved
    slack = pt.err + trial.err
    rise = trial.h - pt.h
    if rise >= 0.25 * float(pt.grad @ pure) - slack and (
        rise + mu * (trial_barrier.value - barrier.value) >= -slack
    ):
        return moved
    return None


def _line_search(
    prob: _MinimaxProblem, pt: _MinimaxPoint, barrier: _Barrier, mu, step, dec
):
    """Halve t from 1 until the barrier objective rises by a quarter of the
    predicted gain, up to the rounding level of h; None when no step does.
    Steps at or beyond the boundary ||M|| = 1 are skipped unevaluated."""
    phi = pt.h + mu * barrier.value
    t_max = _step_to_boundary(barrier, step)
    t = 1.0
    for _ in range(30):
        if t < t_max:
            moved = _trial(prob, pt.y + t * step)
            if moved is not None:
                trial, trial_barrier = moved
                gain = trial.h + mu * trial_barrier.value - phi
                if gain >= 0.25 * t * dec - (pt.err + trial.err):
                    return moved
        t *= 0.5
    return None


def _affine_top(prob: _MinimaxProblem, pt: _MinimaxPoint) -> _MinimaxPoint | None:
    """The maximum of h when ``prob.null`` has no columns, from the point
    ``pt`` at y = 0; None if the barrier finds it outside.

    Then X*(y) = x0 for every y and h(y) = h(0) + y . grad is affine, and
    y . grad = -<C, M> / e_norm for the dual matrix C = sum_a (-grad_a) E_a.
    Over ||M|| <= 1 that is largest, at ||C||_1 / e_norm, at the polar
    factor M* = -U V^+ of C = U S V^+ over its nonzero singular values
    (M* = 0 for C = 0), whose coordinates are y*_a = <E_a, M*> / e_norm."""
    u, sv, vh = np.linalg.svd(_combine(-pt.grad, prob.e))
    keep = sv > len(sv) * _EPS * sv[0]
    # Just inside ||M|| = 1, far enough for the barrier's eigensolve to see
    # it inside; h gives up 32 eps ||C||_1 / e_norm for that.
    m_star = -(1.0 - 32 * _EPS) * (u[:, keep] @ vh[keep])
    flat = prob.e.reshape(len(prob.e), -1)
    y = np.real(flat.conj() @ m_star.ravel()) / prob.e_norm
    if _log_det_barrier(prob.lmi, y) is None:
        return None
    return prob.point(y)


def _gauge(lmi: np.ndarray, barrier: _Barrier) -> tuple[np.ndarray, np.ndarray]:
    """The gradient and Hessian in y of the gauge g(y) = ||M(y)|| =
    1 - lambda_min(A(y)), read off the barrier's eigensystem of A(y).

    The eigenvalues tied with lambda_min to the eigensolve's rounding
    level form a cluster C, whose mean lambda_C moves smoothly: an
    antisymmetric M pairs its singular values, so for Holevo the smallest
    eigenvalue of A is always at least double.  With u_i the eigenvectors
    in C and v_k the others, lambda_C has the gradient mean_i u_i^+ F_a u_i
    and the Hessian
    (2/|C|) sum_i sum_k Re[(u_i^+ F_a v_k)(v_k^+ F_b u_i)] / (lambda_C - lambda_k);
    g takes both with the opposite sign, so its Hessian is PSD."""
    vals, vecs = barrier.vals, barrier.vecs
    c = int(np.sum(vals - vals[0] <= 16 * len(vals) * _EPS * vals[-1]))
    rows = dagger(vecs[:, :c]) @ lmi @ vecs  # u_i^+ F_a (all eigenvectors)
    grad = -np.real(np.trace(rows[:, :, :c], axis1=1, axis2=2)) / c
    off = (rows[:, :, c:] / np.sqrt(vals[c:] - np.mean(vals[:c]))).reshape(len(lmi), -1)
    return grad, (2.0 / c) * np.real(off @ dagger(off))


def _to_face(prob: _MinimaxProblem, u: np.ndarray) -> tuple[_MinimaxPoint, _Barrier] | None:
    """The trial at the gauge projection (1 - 32 eps) u / ||M(u)|| of u != 0
    onto ||M|| = 1, with the shrink of :func:`_affine_top`; None when its
    form fails to factor.  A(u) - I has the eigenvalues +-sigma_i(M(u)),
    so its one eigensolve gives ||M(u)|| and, scaled, the eigensystem of A
    at the projection."""
    vals, vecs = np.linalg.eigh(_combine(u, prob.lmi))
    scale = (1.0 - 32 * _EPS) / -float(vals[0])
    barrier = _barrier(prob.lmi, 1.0 + scale * vals, vecs)
    if barrier is None:
        return None
    try:
        return prob.point(scale * u), barrier
    except np.linalg.LinAlgError:
        return None


def _face_step(
    prob: _MinimaxProblem, pt: _MinimaxPoint, barrier: _Barrier
) -> tuple[_MinimaxPoint, _Barrier] | None:
    """The Riemannian Newton step for max h on the face g(y) = ||M(y)|| = 1
    from the point ``pt`` on it, retracted by :func:`_to_face`; None where
    h does not press outward (the multiplier nu = dg . dh / |dg|^2 is not
    positive) or the tangent system is singular.

    With P the projector off dg, the step xi solves
    P (d2h - nu d2g) P xi = -P dh on the tangent space, as the bordered
    system [[d2h - nu d2g, dg], [dg^T, 0]] [xi; lam] = [-dh; 0].  Where y
    has one coordinate (Holevo at n = 2) the face is y = +-1, xi = 0 and
    the projection alone is the maximizer."""
    m = len(pt.y)
    g_grad, g_hess = _gauge(prob.lmi, barrier)
    nu = float(g_grad @ pt.grad) / float(g_grad @ g_grad)
    if not nu > 0.0:
        return None
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = pt.hess - nu * g_hess
    kkt[:m, m] = kkt[m, :m] = g_grad
    try:
        xi = np.linalg.solve(kkt, np.append(-pt.grad, 0.0))[:m]
    except np.linalg.LinAlgError:
        return None
    # g is convex, so g(y + xi) >= g(y) + dg . xi = g(y) and the
    # projection is well defined once xi is finite.
    if not np.all(np.isfinite(xi)):
        return None
    return _to_face(prob, pt.y + xi)


def _minimax_newton(
    state: EvaluatedState,
    weight: tuple[np.ndarray, linalg.EigenSystem],
    strategy: str,
    max_steps: int,
) -> MinimizeResult:
    """max_y h(y) by damped Newton on h + mu log det A(y), mu -> 0.

    Every point gives a certified h(y) below the minimum C and a feasible
    X*(y) with f(X*(y)) >= C.  Three exits save Newton steps.  When the
    reduced null space is empty, h is affine and its maximum over
    ||M|| < 1 is read off the polar factor of the dual matrix at y = 0
    (:func:`_affine_top`): the interval comes from that point and the start,
    with no step.  Otherwise each step first tries the pure Newton step on
    h, inside the barrier's Dikin ellipsoid (:func:`_pure_step`), which
    closes an optimum inside the ball in a few steps, and else takes the
    damped barrier step.  At the first central point with ||M|| >= 1/2,
    where mu would be lowered, the endgame starts: that point's gauge
    projection onto ||M|| = 1 (:func:`_to_face`), then Riemannian Newton
    steps for max h on the face (:func:`_face_step`), for as long as each
    point raises the certified lower end.  It closes an optimum on the
    boundary in a few points, where the barrier path takes one step per
    decade of mu; when it stops, the barrier loop goes on from its own
    iterate.  Each endgame point counts as a step, enters ``lower`` and
    ``value`` like any other and appends to the trace.  Every exit keeps
    the certificate: every ``lower`` is an h at a point with ||M|| < 1,
    every value f at a feasible X.  The loop stops when the best pair is
    within MINIMAX_RTOL, when the barrier weight has reached its floor at
    a central point or with no gain left above the rounding level of h,
    or when no step raises the barrier objective or the Newton system is
    singular, as it can turn near ||M|| = 1.
    """
    prob = _MinimaxProblem(state, weight, strategy)
    pt = prob.point(np.zeros(len(prob.e)))  # X*(0) is the canonical start
    # With no free coordinates h is affine and its maximum is known: the
    # interval is read off that point and the start, and no step is taken.
    top = _affine_top(prob, pt) if prob.null.shape[1] == 0 else None
    seen = (pt,) if top is None else (pt, top)
    barrier = _log_det_barrier(prob.lmi, pt.y)
    # The barrier moves h by about mu times its parameter, twice the side
    # of M; the floor keeps that far below the stopping gap.
    mu = 0.1 * pt.h / (2 * prob.e.shape[1])
    mu_min = 1e-6 * MINIMAX_RTOL * pt.h
    best_f, best_x, lower = math.inf, pt.x, -math.inf
    trace = []
    steps = 0
    face, tried = None, False  # the endgame's last point on ||M|| = 1; entered yet
    while True:
        rose = False
        for p in seen:
            if p.counts:
                if p.h - p.err > lower:
                    lower, rose = p.h - p.err, True
                if p.f < best_f:
                    best_f, best_x = p.f, p.x
        trace.append(best_f)
        converged = best_f - lower <= MINIMAX_RTOL * best_f
        if converged or top is not None or steps == max_steps:
            break
        steps += 1
        # The endgame steps on while each of its points raises lower; then
        # the barrier loop goes on from its own iterate.
        if face is not None and rose:
            face = _face_step(prob, *face)
            if face is not None:
                seen = (face[0],)
                continue
        face = None
        try:
            step, dec, cen, pure = _newton_step(pt, barrier, mu)
            # Near the central point of this mu, or no gain left above the
            # rounding level of h: lower mu.
            if cen <= mu or dec <= pt.err:
                if mu == mu_min:
                    break
                # The first such point at ||M|| >= 1/2 enters the endgame
                # with its projection onto ||M|| = 1.
                if not tried and 1.0 - float(barrier.vals[0]) >= 0.5:
                    tried = True
                    face = _to_face(prob, pt.y)
                    if face is not None:
                        seen = (face[0],)
                        continue
                mu = max(0.1 * mu, mu_min)
                step, dec, cen, pure = _newton_step(pt, barrier, mu)
        except np.linalg.LinAlgError:
            break
        moved = _pure_step(prob, pt, barrier, mu, pure) or _line_search(
            prob, pt, barrier, mu, step, dec
        )
        if moved is None:
            break
        pt, barrier = moved
        seen = (pt,)
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
    weight = _check_weight(cfg.w, n)
    # A nonzero PSD W gives h(0) >= Tr(W F_Q^-1) > 0, which sets the
    # barrier weight; at W = 0 every functional is 0 and the solver has no scale.
    if float(weight[1].values[-1]) <= 0.0:
        raise InvalidWeight("minimize_bound needs a nonzero weight matrix")
    if cfg.strategy not in ("holevo", "nagaoka"):
        raise InvalidN(f"unknown strategy {cfg.strategy!r}")
    if cfg.strategy == "nagaoka" and n != 2:
        raise InvalidN("the Nagaoka strategy is defined for n = 2")
    return _minimax_newton(state, weight, cfg.strategy, cfg.max_iters)
