"""Collective operators on tensor powers and the p-local tradeoff matrices.

The tradeoff matrices take their single-copy operators in the
reparametrized frame L~ = F_Q^(-1/2) L (tilde SLDs, and tilde RLDs for
C_p^RLD), in which every p-local bound is stated, so F-bar_Im enters
n - f(n) ||F-bar_Im/p||_F^2 as computed.  An F-bar over explicit or
AlignEntry signs is linear in whatever Hermitian operators it is given
(the variational bound passes its X_j).

Every collective quantity here is permutation-invariant on (C^d)^(x)p, so
it splits into Schur–Weyl irrep blocks (see :mod:`qmetro.schur`):

    (C^d)^(x)p = (+)_lambda V_lambda (x) P_lambda,
    pi(A) = sum_r A^(r) -> pi_lambda(A) (x) I_{m_lambda}.

In the eigenbasis of rho = U D U+, sqrt(rho)^(x)p is the diagonal
Pi_lambda(sqrt D) on each block.  A block lambda with lambda_d = k is
the reduced shape mu = lambda - k(1, ..., 1) (mu_d = 0) times det^k: in
the Gelfand–Tsetlin basis pi_lambda(A) = pi_mu(A) + k Tr(A) I and
Pi_lambda(sqrt D) = det(sqrt D)^k Pi_mu(sqrt D).  So
:func:`reduced_blocks` walks the reduced shapes of the blocks of every
p of a list, each once, and on every block lambda = mu + k(1, ..., 1)
the weighted image S pi_lambda(C) S of a traceless C is that of mu times
m_lambda det(D)^k.  The scale and the largest weight of mu are combined
in log space, so large p neither under- nor overflows.

:func:`block_sweep` reads C_p, C_p^RLD and the AutoAlign F-bar_Im
candidates of every p of a list from that one walk.  The pair
commutators -i [L~_j, L~_k], j < k, and the tilde RLDs are rotated into
rho's eigenbasis once per sweep, and on each shape their images are one
matrix product with its flattened generators (pi([A, B]) = [pi(A),
pi(B)]).  One eigendecomposition of a pair's commutator image H_q =
S pi_mu(-i [L~_j, L~_k]) S gives the C_p share and the auto_align(j,k)
contribution at every p where mu recurs: a qubit sweep over p = 1..P
makes O(P) eigensolves per pair.  The trivial shape mu = 0 is not
solved, because pi_mu vanishes there.  The block eigenbases are never
returned, so a candidate's meta names its strategy only.  C_p^RLD reads
every block lambda, because RLDs are not traceless: its image is the mu
image shifted by k Tr(R) I, and the products of all the blocks a shape
serves share its eigvalsh calls.  A single p is the same walk over a
one-element list (:func:`block_pass`).  LAPACK calls stack about
STACK_BYTES of block matrices.  A trace norm over the m_lambda copies of
a block is m_lambda times the block's.  Only the largest block bounds
the memory, and the dimension cap bounds the largest block.

:func:`compute_fbar_im`, F-bar over a supplied basis of (C^d)^(x)p (a
(d^p, count) array of columns, or None for the computational one) with a
transpose sign s_q = +1 or -1 per column (explicit, AlignEntry,
OptimizeNorm), applies sqrt(rho) and each L_j to the basis one site at a
time, so no collective operator is built as a d^p x d^p matrix there
either.  The module also computes T_p (exact enumeration or Monte Carlo)
and the p -> infinity limit.

The state-independent tables of a call are built once per process and
kept read-only, so a call pays only for its state: log m_lambda of the
shapes of each (p, d), one float per shape, the occupation-law skeleton
of T_p per (p, support rank), while all kept skeletons fit in
LAW_CACHE_BYTES, and, for bases of at most OPTIMIZE_MAX_VECTORS
vectors, the computational basis of F-bar per (d, p) and OptimizeNorm's
sign patterns per basis size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

import numpy as np

from . import linalg, schur
from .errors import (
    DimMismatch,
    DimensionOverflow,
    EnumerationOverflow,
    IncompleteBasis,
    KindMismatch,
)
from .linalg import DEFAULT_DIM_CAP, dagger
from .states import EvaluatedState

#: Exact T_p enumeration is abandoned beyond this many occupation vectors.
DEFAULT_ENUM_CAP = 2_000_000

#: Exhaustive transpose optimization only below this basis size (2^(k-1) combos).
OPTIMIZE_MAX_VECTORS = 12

#: Relative tie width: alignment values within this fraction of the largest
#: |value| among those compared take "as is", and F-bar candidates whose
#: norms are within it of the largest count as tied (the first wins).
SIGN_TIE_RTOL = 1e-12


# --- sign-choice selectors ---------------------------------------------------


@dataclass(frozen=True)
class AlignEntry:
    """Keep the supplied basis; per vector, transpose whenever the (j, k)
    imaginary part is negative so the contributions add coherently."""

    j: int
    k: int


@dataclass(frozen=True)
class OptimizeNorm:
    """Exhaustively maximize the Frobenius norm of the imaginary aggregate
    over all 2^k transpose patterns (global flips are redundant, so 2^(k-1)
    are scored, all at once as one quadratic form; ties keep the first).
    Bases of at most OPTIMIZE_MAX_VECTORS vectors only."""


#: +1 (as is) or -1 (transposed) per basis vector, or a selector.
Signs = Union[Sequence[float], AlignEntry, OptimizeNorm]


# --- collective operators ----------------------------------------------------


@dataclass(frozen=True)
class CollectiveOperators:
    """rho^(x)p with the collective operators L_jp = sum_r L_j^(r).

    Holds the single-copy ``state`` and ``base_ops``, the n operators as
    one complex (n, d, d) stack; the block-path tradeoff matrices read the
    irrep blocks from :func:`reduced_blocks`.
    """

    p: int
    state: EvaluatedState
    base_ops: np.ndarray

    @property
    def d(self) -> int:
        return self.state.dim

    @property
    def dim(self) -> int:
        return self.d**self.p

    @property
    def n(self) -> int:
        return len(self.base_ops)


#: A block lambda of one p served by a reduced shape: (p, lambda, scale).
Served = tuple[int, tuple[int, ...], float]


def reduced_blocks(
    state: EvaluatedState, p_list: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray, list[Served]]]:
    """Yield ``(s, gens, served)`` per reduced shape mu, one at a time.

    The shapes mu (mu_d = 0) are those of the blocks lambda = mu + k(1,
    ..., 1) of every p in ``p_list``, each listed once.  ``s`` is the
    diagonal of Pi_mu(sqrt D) in the Gelfand–Tsetlin basis over its
    largest entry, with rho = U D U+.  ``gens`` holds the real
    pi_mu(E_ab) flattened to a (d^2, dim^2) array, so that one matrix
    product maps a stack of single-copy operators A to their images:

        pi(A) = pi_mu(U+ A U) = ((U+ A U).reshape(count, d^2) @ gens)
                                .reshape(count, dim, dim).

    ``served`` names the blocks lambda with their ``scale`` = m_lambda
    det(D)^k (max Pi_mu(sqrt D))^2, summed in log space (log m_lambda from
    :func:`_log_multiplicities`), so that on lambda

        sqrt(m_lambda) Pi_lambda(sqrt D) = sqrt(scale) s,
        pi_lambda(A) = pi(A) + k Tr(A) I.

    A block with k >= 1 of a rank-deficient rho has scale 0.
    """
    values = state.eigen.values
    sqrt_d = np.sqrt(np.where(values > state.rank_tol, values, 0.0))  # as sqrt_rho
    log_det = sum(map(math.log, sqrt_d)) if sqrt_d.all() else -math.inf  # det(sqrt D)
    walk: dict[tuple[int, ...], list[tuple[int, tuple[int, ...], float]]] = {}
    for p in dict.fromkeys(p_list):
        logs = _log_multiplicities(p, state.dim).tolist()
        for shape, log_m in zip(schur.partitions(p, state.dim), logs):
            mu = tuple(r - shape[-1] for r in shape)
            walk.setdefault(mu, []).append((p, shape, log_m))
    for mu, blocks in walk.items():
        weights, gens = schur.gt_basis(mu)
        log_s = schur.log_diag_power(weights, sqrt_d)
        top = float(log_s.max())
        top = top if top > -math.inf else 0.0  # no support: s = 0
        served = []
        for p, shape, log_m in blocks:
            k = shape[-1]
            log_scale = log_m + 2.0 * top
            if k:  # k * -inf, never 0 * -inf
                log_scale += 2.0 * k * log_det
            served.append((p, shape, math.exp(log_scale)))
        yield np.exp(log_s - top), gens.reshape(state.dim**2, -1), served


@functools.cache
def _log_multiplicities(p: int, d: int) -> np.ndarray:
    """log m_lambda of every shape of ``schur.partitions(p, d)``, in its
    order: built once per (p, d), one float per shape, and read-only."""
    logs = [math.log(schur.multiplicity(shape)) for shape in schur.partitions(p, d)]
    return _read_only(np.array(logs))[0]


def _images(flat: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """pi_mu of each operator of the flattened eigenbasis stack ``flat``
    (one row per operator), as a (count, dim, dim) stack.  The product
    casts the real generators to complex for its own length only, so a
    shape holds no complex copy of them while its blocks are solved."""
    dim = math.isqrt(gens.shape[1])
    return (flat @ gens).reshape(len(flat), dim, dim)


def _eigenbasis_rows(vecs: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """U+ A U of each operator of a stack, one flattened row per operator."""
    return (dagger(vecs) @ ops @ vecs).reshape(len(ops), -1)


def build_collective(
    state: EvaluatedState,
    ops: Sequence[np.ndarray],
    p: int,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> CollectiveOperators:
    """Collective operators for ``p`` copies of ``state``.

    ``ops`` are single-copy operators: the tilde SLDs L~ = F_Q^(-1/2) L
    for the tradeoff matrices, in which frame every p-local bound is
    stated.  Builds no block; raises KindMismatch for p < 1, DimMismatch
    unless each operator is d x d, and DimensionOverflow when the
    largest block exceeds the cap.  The
    largest block grows with p, so the collective at the largest p of a
    list checks the cap for a :func:`block_sweep` over all of them.
    """
    if p < 1:
        raise KindMismatch(f"copies count must be >= 1, got {p}")
    base_ops = _operator_stack(ops, len(ops), state.dim, "the collective")
    largest = max(schur.irrep_dim(shape) for shape in schur.partitions(p, state.dim))
    if largest > dim_cap:
        raise DimensionOverflow(
            f"largest irrep block at p={p} has dimension {largest}, above cap {dim_cap}"
        )
    return CollectiveOperators(p=p, state=state, base_ops=base_ops)


def _operator_stack(ops: Sequence[np.ndarray], count: int, d: int, what: str) -> np.ndarray:
    """``ops`` as one complex (count, d, d) stack, taken as it is when it
    already is one; DimMismatch naming ``what`` unless there are ``count``
    operators, each d x d."""
    if len(ops) != count or any(np.shape(o) != (d, d) for o in ops):
        raise DimMismatch(f"{what} needs {count} operators of shape ({d}, {d})")
    return np.asarray(ops, dtype=np.complex128)


# --- tradeoff matrices --------------------------------------------------------


@dataclass(frozen=True)
class TradeoffMatrix:
    """An n x n tradeoff matrix with its provenance.

    kinds: "C" (collective trace norms), "T" (diagonal surrogate),
    "C_RLD" (clipped RLD version), "FBAR_IM" (skew aggregate from a
    single basis/transpose choice), "LIMIT" (the p -> infinity value of
    C_p/p, already per copy).
    """

    kind: str
    p: int
    entries: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def per_copy(self) -> np.ndarray:
        if self.kind == "LIMIT":
            return self.entries
        return self.entries / self.p

    def validate(self, atol: float = 1e-9) -> None:
        e = self.entries
        if self.kind in ("C", "T", "C_RLD", "LIMIT"):
            if np.max(np.abs(np.diag(e))) > atol:
                raise KindMismatch(f"{self.kind} matrix has nonzero diagonal")
            if np.max(np.abs(e - e.T)) > atol:
                raise KindMismatch(f"{self.kind} matrix is not symmetric")
            if np.min(e) < -atol:
                raise KindMismatch(f"{self.kind} matrix has negative entries")
        elif self.kind == "FBAR_IM":
            if np.max(np.abs(e + e.T)) > atol:
                raise KindMismatch("FBAR_IM matrix is not skew-symmetric")
        else:
            raise KindMismatch(f"unknown tradeoff kind {self.kind!r}")


#: Bytes of block matrices per stacked LAPACK call: a small block takes
#: every pair in one call, the largest blocks one or a few pairs at a time.
STACK_BYTES = 256 << 10


def _stacks(count: int, dim: int) -> list[slice]:
    """Consecutive slices covering ``range(count)``, each about STACK_BYTES
    of complex dim x dim matrices and at least one."""
    size = max(1, STACK_BYTES // (16 * dim * dim))
    return [slice(start, start + size) for start in range(0, count, size)]


def _check_pair(j: int, k: int, n: int) -> None:
    if not (0 <= j < n and 0 <= k < n) or j == k:
        raise KindMismatch(f"pair ({j}, {k}) needs two distinct indices in [0, {n})")


def _sandwich(img: np.ndarray, s: np.ndarray) -> np.ndarray:
    """S img S in place for the block weight diagonal S."""
    img *= s[:, None]
    img *= s
    return img


def _half_herm_norms(herm: np.ndarray) -> np.ndarray:
    """1/2 ||A||_1 of each Hermitian matrix of a stack (LAPACK reads one
    triangle)."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm)), axis=-1)


def _align_block(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked eigensolves of the pair images ``h``; returns per pair q
    1/2 ||H_q||_1 and Re <H_q', V sgn V+> for every pair q'.  The locals
    die on return, before the next block is built."""
    flat = h.reshape(len(h), -1).view(np.float64)
    norms = np.empty(len(h))
    shares = np.empty((len(h), len(h)))
    for st in _stacks(len(h), h.shape[-1]):
        vals, vecs = np.linalg.eigh(h[st])
        sgn = _signs_from_values(vals / 2.0)
        rows = (vecs * sgn[:, None, :]) @ dagger(vecs)  # V sgn V+ per pair
        del vecs
        # One matrix-vector product per pair in one call: a product of
        # the whole stack would round each row by the stack's size.
        rows = rows.reshape(len(rows), 1, -1).view(np.float64)
        shares[st] = (rows @ flat.T)[:, 0]
        norms[st] = 0.5 * np.sum(np.abs(vals), axis=-1)
    return norms, shares


def _rld_blocks(
    xs: np.ndarray, s: np.ndarray, traces: np.ndarray, ks: np.ndarray,
    j_idx: np.ndarray, k_idx: np.ndarray,
) -> np.ndarray:
    """1/2 ||P - P+||_1 per block and pair, P = X_j X_k+ with X_j =
    xs_j + k Tr(R_j) S on the block lambda_d = k of each entry of ``ks``,
    from the shape images ``xs`` of the RLDs R (weighted here, in place:
    xs_j = S pi_mu(R_j)) and the weight S = diag(``s``).  The (block,
    pair) products go in stacks of about STACK_BYTES, one eigvalsh each,
    so no stack of every block is built."""
    xs *= s[:, None]
    ts = traces[:, None] * s  # the diagonal Tr(R_j) S that k = 1 adds
    pairs = len(j_idx)
    out = np.empty(len(ks) * pairs)
    for st in _stacks(len(out), len(s)):
        block, q = np.divmod(np.arange(st.start, min(st.stop, len(out))), pairs)
        out[st] = _half_herm_norms(_rld_products(xs, ts, j_idx[q], k_idx[q], ks[block]))
    return out.reshape(len(ks), pairs)


def _rld_products(
    xs: np.ndarray, ts: np.ndarray, j: np.ndarray, k: np.ndarray, shift: np.ndarray
) -> np.ndarray:
    """i (P - P+) per item, P = X_j X_k+ for the operators ``j`` and ``k``
    and the block shift k of each item (see :func:`_rld_blocks`).  The
    factors die on return, before the next stack is built."""
    ops = np.concatenate((j, k))
    shift = np.concatenate((shift, shift))[:, None]
    x = xs[ops]  # X_j of every item, then X_k
    diag = x.reshape(len(x), -1)[:, :: x.shape[-1] + 1]
    np.add(diag, shift * ts[ops], out=diag, where=shift != 0)  # k = 0 keeps xs
    left, right = x[: len(j)], x[len(j):]
    prod = left @ np.conjugate(right, out=right).swapaxes(1, 2)
    del x, diag, left, right
    prod -= dagger(prod)
    prod *= 1j  # Hermitian
    return prod


@dataclass(frozen=True)
class BlockPass:
    """What the walk over the irrep blocks gives at one p; a consumer
    that was not asked for is None (no candidates)."""

    cp: TradeoffMatrix | None
    cp_rld: TradeoffMatrix | None
    candidates: list[TradeoffMatrix]


def block_sweep(
    coll: CollectiveOperators,
    p_list: Sequence[int],
    rld_ops: Sequence[np.ndarray] | None = None,
    cp: bool = False,
    fbar: bool = False,
) -> dict[int, BlockPass]:
    """C_p, C_p^RLD and the AutoAlign F-bar_Im candidates at every p of
    ``p_list`` from one walk over the reduced shapes (:func:`reduced_blocks`),
    so each shape is built and each pair image solved once.

    ``coll`` holds the tilde SLDs L~ at the largest p of the list, whose
    cap check covers every block (KindMismatch for a p outside [1,
    coll.p]).  C_p (``cp``) and the auto_align(j,k) candidates of every
    pair j < k (``fbar``, in :func:`_pair_indices` order) read its
    operators, and C_p^RLD reads ``rld_ops``, the n single-copy tilde
    RLDs (DimMismatch unless there are n of shape d x d).  The pair
    commutators and the RLDs are rotated into rho's eigenbasis once, and
    on a reduced shape with weight s all their images come from one
    matrix product with the shape's generators.  Pair q = (j, k) has the
    Hermitian image H_q = s pi_mu(-i [L~_j, L~_k]) s, and with
    H_q = V Lambda V+ and the scales c of the blocks lambda of each p

        (C_p)_q = 1/2 sum_lambda c sum_i |Lambda_i|,
        auto_align(q): F-bar_Im[q'] = 1/2 sum_lambda c Re <H_q', V sgn(Lambda) V+>,

    because Im <u|S L_j L_k S|u> = 1/2 <u|H_(j,k)|u> for every vector u.
    So one eigh per pair and shape serves every p, and entry (j, k) of
    auto_align(j,k) equals the C_p entry; without ``fbar``, C_p reads
    eigvalsh.  The shape mu = 0 adds nothing here (pi_mu = 0) and is not
    solved.  The signs take the tie rule on the alignment values
    Lambda/2, which does not depend on c.  C_p^RLD takes P = X_j X_k+
    with X_j = s pi_lambda(L~^R_j) = s (pi_mu(L~^R_j) + k Tr(L~^R_j) I) on
    each block and clips 1/2 sum_lambda c ||P - P+||_1 at 2p; the
    products of every block a shape serves, and every pair, go into
    eigvalsh calls together.  Each LAPACK call stacks about STACK_BYTES
    of matrices; a shape's stacks die before the next shape is built.
    Every pair's candidate entries at one p come from one (pairs, n, n)
    array.
    """
    n = coll.n
    ps = tuple(dict.fromkeys(p_list))
    if any(not 1 <= p <= coll.p for p in ps):
        raise KindMismatch(f"p list {ps} must lie in [1, {coll.p}]")
    vecs = coll.state.eigen.vectors
    j_idx, k_idx = _pair_indices(n)
    pairs = len(j_idx)
    if cp or fbar:
        ops = coll.base_ops
        comms = _eigenbasis_rows(vecs, -1j * (ops[j_idx] @ ops[k_idx] - ops[k_idx] @ ops[j_idx]))
    if rld_ops is not None:
        rld_ops = _operator_stack(rld_ops, n, coll.d, "C_p^RLD")
        rld_traces = np.trace(rld_ops, axis1=1, axis2=2)
        rld_rows = _eigenbasis_rows(vecs, rld_ops)
    # One row per p of the list; within a shape every p has one block.
    row_of = {p: i for i, p in enumerate(ps)}
    cp_vals = np.zeros((len(ps), pairs))
    rld_vals = np.zeros((len(ps), pairs))
    totals = np.zeros((len(ps), pairs, pairs)) if fbar else None
    for s, gens, served in reduced_blocks(coll.state, ps):
        served = [block for block in served if block[2] != 0.0]  # zero blocks skipped
        rows = [row_of[p] for p, _, _ in served]
        scales = np.array([scale for _, _, scale in served])[:, None]
        # pi_mu vanishes on the one-dimensional shape mu = 0, so the
        # commutators have no share there; the RLD blocks k Tr(R) I do.
        if served and len(s) > 1 and fbar:
            norms, shares = _align_block(_sandwich(_images(comms, gens), s))
            totals[rows] += scales[:, :, None] * shares
            if cp:
                cp_vals[rows] += scales * norms
        elif served and len(s) > 1 and cp:
            cp_vals[rows] += scales * np.concatenate([
                _half_herm_norms(_sandwich(_images(comms[st], gens), s))
                for st in _stacks(pairs, len(s))
            ])
        if served and rld_ops is not None:
            ks = np.array([shape[-1] for _, shape, _ in served])
            rld_vals[rows] += scales * _rld_blocks(
                _images(rld_rows, gens), s, rld_traces, ks, j_idx, k_idx
            )
        del gens  # before the generator builds the next shape
    # Every p's matrices at once: one (len(ps), n, n) array per consumer
    # and one (len(ps), pairs, n, n) array of candidates.
    if cp:
        cp_mats = _pair_matrix(n, cp_vals)
    if rld_ops is not None:
        rld_mats = np.minimum(_pair_matrix(n, rld_vals), 2.0 * np.array(ps)[:, None, None])
    if fbar:
        upper = np.zeros((len(ps), pairs, n, n))
        upper[:, :, j_idx, k_idx] = 0.5 * totals
        skew = upper - np.swapaxes(upper, 2, 3)
        cands = (skew - np.swapaxes(skew, 2, 3)) / 2.0  # exact skew symmetry
        labels = [f"auto_align({j},{k})" for j, k in zip(j_idx.tolist(), k_idx.tolist())]
    out = {}
    for p, row in row_of.items():
        out[p] = BlockPass(
            cp=TradeoffMatrix(kind="C", p=p, entries=cp_mats[row]) if cp else None,
            cp_rld=TradeoffMatrix(
                kind="C_RLD", p=p, entries=rld_mats[row]
            ) if rld_ops is not None else None,
            candidates=[
                TradeoffMatrix(kind="FBAR_IM", p=p, entries=entries, meta={"strategy": label})
                for entries, label in zip(cands[row], labels)
            ] if fbar else [],
        )
    return out


def block_pass(
    coll: CollectiveOperators,
    rld_ops: Sequence[np.ndarray] | None = None,
    cp: bool = False,
    fbar: bool = False,
) -> BlockPass:
    """:func:`block_sweep` at the one p of ``coll``."""
    return block_sweep(coll, (coll.p,), rld_ops, cp, fbar)[coll.p]


def compute_cp(coll: CollectiveOperators) -> TradeoffMatrix:
    """(C_p)_{jk} = 1/2 ||sqrt(rho_p) [L~_jp, L~_kp] sqrt(rho_p)||_1,
    summed over the irrep blocks with their multiplicities (see
    :func:`block_pass`)."""
    return block_pass(coll, cp=True).cp


def compute_cp_rld(coll: CollectiveOperators) -> TradeoffMatrix:
    """(C_p^RLD)_{jk} = min{1/2 ||sqrt(rho_p)(L~_jp L~_kp+ - L~_kp L~_jp+)sqrt(rho_p)||_1, 2p}
    for a collective of tilde RLDs, over the irrep blocks (see
    :func:`block_pass`)."""
    return block_pass(coll, rld_ops=coll.base_ops).cp_rld


def pair_commutator_table(state: EvaluatedState, tilde_ops: Sequence[np.ndarray]) -> np.ndarray:
    """c[i, q] = Im <Psi_i|[L~_j, L~_k]|Psi_i> on the support, for every
    pair q = (j, k), j < k, in ``itertools.combinations`` order.

    With G_jk = <Psi_i|L~_j L~_k|Psi_i> for Hermitian L~, the commutator's
    diagonal is G_jk - G_kj = 2i Im G_jk, so one product of the columns
    L~_j Psi_i gives every pair.
    """
    cols = np.asarray(tilde_ops) @ state.support_vectors  # (n, d, m)
    gram = np.einsum("jai,kai->ijk", np.conj(cols), cols)
    j, k = _pair_indices(len(tilde_ops))
    return 2.0 * np.imag(gram[:, j, k])


@functools.cache
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs j < k in ``itertools.combinations``
    order, built once per n (np.triu_indices costs about 20 us) and
    read-only."""
    return _read_only(*np.triu_indices(n, 1))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, each set read-only: a table kept for the process is
    shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _pair_matrix(n: int, values: np.ndarray) -> np.ndarray:
    """Symmetric n x n matrix with zero diagonal from per-pair values (the
    last axis; any leading axes give a stack of such matrices)."""
    out = np.zeros(values.shape[:-1] + (n, n))
    out[(..., *_pair_indices(n))] = values
    return out + np.swapaxes(out, -1, -2)


def composition_count(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def compositions(total: int, parts: int) -> np.ndarray:
    """All occupation vectors of ``parts`` nonnegative ints summing to
    ``total``, one per row, in lexicographic order.

    Built one column at a time: a prefix with ``r`` still to place has
    ``r + 1`` children whose next entry runs 0..r, and a child with ``r'``
    left heads composition_count(r', columns after it) consecutive rows,
    so each column is written once into the preallocated array; the last
    column takes what remains.
    """
    out = np.empty((composition_count(total, parts), parts), dtype=np.int64)
    # spans[c][r] = composition_count(r, c + 1), by the hockey-stick identity
    spans = [np.ones(total + 1, dtype=np.int64)]
    for _ in range(parts - 2):
        spans.append(np.cumsum(spans[-1]))
    rest = np.array([total], dtype=np.int64)
    for col in range(parts - 1):
        counts = rest + 1
        row = np.repeat(np.arange(rest.size), counts)
        k = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rest = rest[row] - k
        out[:, col] = np.repeat(k, spans[parts - col - 2][rest])
    out[:, -1] = rest
    return out


#: Bytes of occupation-law skeletons kept for the rest of the process.
#: First come, first kept, as in :data:`schur.CACHE_BYTES`: an
#: increasing-p sweep meets its small laws first.
LAW_CACHE_BYTES = 1 << 20

_laws: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _law_skeleton(p: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The state-independent part of the occupation law of p draws over
    ``rank`` outcomes: the occupation vectors k in lexicographic order, in
    the narrowest unsigned type that holds p, and their log multinomial
    coefficients log p! - sum_i log k_i!.

    A skeleton depends on (p, rank) alone, so every call in the process
    shares one copy: the arrays are read-only, and a skeleton is kept
    while all kept skeletons fit in LAW_CACHE_BYTES.  One that does not
    fit is built again at its next call.
    """
    skeleton = _laws.get((p, rank))
    if skeleton is None:
        occupations = compositions(p, rank)
        log_fact = np.array([math.lgamma(i + 1) for i in range(p + 1)])
        log_coef = log_fact[p] - np.sum(log_fact[occupations], axis=1)
        skeleton = _read_only(occupations.astype(np.min_scalar_type(p)), log_coef)
        kept = sum(o.nbytes + c.nbytes for o, c in _laws.values())
        if kept + sum(a.nbytes for a in skeleton) <= LAW_CACHE_BYTES:
            _laws[(p, rank)] = skeleton
    return skeleton


def _occupation_law(p: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The occupation vectors k of p draws over ``len(values)`` outcomes,
    as float rows in lexicographic order, and their multinomial weights
    multinomial(p; k) prod_i values_i^k_i, accumulated in log space.

    The vectors and log multinomial coefficients come from the skeleton
    of (p, rank) (:func:`_law_skeleton`), kept per process; a call forms
    only the float rows and exp(log_coef + rows . log values).
    """
    occupations, log_coef = _law_skeleton(p, len(values))
    rows = occupations.astype(float)
    return rows, np.exp(log_coef + rows @ np.log(values))


def _pair_sums(
    rows: np.ndarray, freq: np.ndarray, table: np.ndarray, spread: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """S_q = sum_r freq_r v_rq with v_rq = 1/2 |rows_r . c_q| for every
    column c_q of the commutator ``table``, and with ``spread`` the
    weighted squared deviations sum_r freq_r (v_rq - S_q / sum_r freq_r)^2.

    The pairs go in stacks of about STACK_BYTES of v (at least one pair),
    each stack one stacked matrix-vector product per pair, so a pair's
    sum is rounded as it would be alone whatever the stack size.
    """
    cols = table.T.copy()  # (pairs, m), one contiguous row per pair
    sums = np.empty(len(cols))
    devs = np.empty(len(cols)) if spread else None
    total = float(np.sum(freq))
    size = max(1, STACK_BYTES // (8 * len(rows)))
    for start in range(0, len(cols), size):
        st = slice(start, start + size)
        vals = rows @ cols[st, :, None]  # (stack, rows, 1)
        np.abs(vals, out=vals)
        vals = vals.reshape(len(vals), 1, -1)
        sums[st] = 0.5 * (vals @ freq)[:, 0]
        if spread:
            vals *= 0.5
            vals -= (sums[st] / total)[:, None, None]
            vals *= vals
            devs[st] = (vals @ freq)[:, 0]
    return sums, devs


def compute_tp_exact(
    state: EvaluatedState,
    tilde_ops: Sequence[np.ndarray],
    p: int,
    enum_cap: int = DEFAULT_ENUM_CAP,
    *,
    table: np.ndarray | None = None,
) -> TradeoffMatrix:
    """Exact T_p by enumerating eigenvector occupation vectors.

    (T_p)_{jk} = 1/2 sum_k multinomial(p; k) prod_i lambda_i^{k_i}
                 |sum_i k_i <Psi_i|[L~_j, L~_k]|Psi_i>|,
    exact to floating precision (no sampling).  The count is checked
    against ``enum_cap`` before any table is built or looked up.  The
    commutator table of (state, tilde_ops) (:func:`pair_commutator_table`)
    is built here unless the caller passes it as ``table``, as a report
    does once for all its p; :func:`_occupation_sum` sums it against the
    occupation law.
    """
    m = state.support_rank
    count = composition_count(p, m)
    if count > enum_cap:
        raise EnumerationOverflow(
            f"{count} occupation vectors exceed enumeration cap {enum_cap}"
        )
    if table is None:
        table = pair_commutator_table(state, tilde_ops)
    return TradeoffMatrix(
        kind="T",
        p=p,
        entries=_pair_matrix(len(tilde_ops), _occupation_sum(table, state.support_values, p)),
        meta={"method": "exact"},
    )


def _occupation_sum(table: np.ndarray, values: np.ndarray, p: int) -> np.ndarray:
    """S_q = 1/2 sum_k multinomial(p; k) prod_i values_i^{k_i} |k . c_q|
    for every column c_q of ``table``, the rows of which go with
    ``values``: the occupation law of p draws (:func:`_occupation_law`,
    weights in log space, whose state-independent skeleton is kept per
    (p, rank) for the process) read by :func:`_pair_sums` a stack of
    pairs at a time."""
    occupations, weights = _occupation_law(p, values)
    return _pair_sums(occupations, weights, table)[0]


def compute_tp_monte_carlo(
    state: EvaluatedState,
    tilde_ops: Sequence[np.ndarray],
    p: int,
    samples: int,
    seed: int,
    *,
    table: np.ndarray | None = None,
) -> TradeoffMatrix:
    """Monte Carlo T_p: sample mean of 1/2 |sum_r c_{v_r}| over iid
    eigenvector draws v_1..v_p, with a per-entry standard error (ddof=1)
    in ``meta["stderr"]``.  ``table`` is the commutator table of (state,
    tilde_ops) when the caller holds it, as for :func:`compute_tp_exact`.

    One call makes one draw of ``samples`` occupation vectors from
    ``default_rng(seed)``, and every entry reads it, so each entry is an
    unbiased mean with its own standard error (entries are correlated
    with each other).  When the occupation law has at most ``samples``
    vectors (composition_count(p, rank) <= samples), the draw is their
    histogram, one ``multinomial(samples, law)``; otherwise it is one
    ``multinomial(p, lambda, size=samples)`` matrix of vectors.  Either
    way nothing larger than a ``samples``-row matrix is built, and the
    same seed gives the same matrix.
    """
    if samples < 1:
        raise EnumerationOverflow(f"samples must be >= 1, got {samples}")
    lam = state.support_values
    rng = np.random.default_rng(seed)
    if composition_count(p, len(lam)) <= samples:
        rows, law = _occupation_law(p, lam)
        freq = rng.multinomial(samples, law / float(np.sum(law))).astype(float)
    else:
        rows = rng.multinomial(p, lam / float(np.sum(lam)), size=samples).astype(float)
        freq = np.ones(samples)
    if table is None:
        table = pair_commutator_table(state, tilde_ops)
    sums, devs = _pair_sums(rows, freq, table, spread=True)
    errs = np.zeros(len(sums))
    if samples > 1:
        errs = np.sqrt(devs / (samples - 1)) / math.sqrt(samples)
    n = len(tilde_ops)
    return TradeoffMatrix(
        kind="T",
        p=p,
        entries=_pair_matrix(n, sums / samples),
        meta={"method": "monte_carlo", "samples": samples, "seed": seed,
              "stderr": _pair_matrix(n, errs)},
    )


def limit_fim(state: EvaluatedState, tilde_ops: Sequence[np.ndarray]) -> TradeoffMatrix:
    """Entrywise p -> infinity limit of C_p/p: 1/2 |Tr(rho [L~_j, L~_k])|.

    For Hermitian L~ this is |Im Tr(rho L~_j L~_k)|, the eigenvalue-weighted
    sum of the commutator table's diagonals.
    """
    table = pair_commutator_table(state, tilde_ops)
    values = 0.5 * np.abs(state.support_values @ table)
    return TradeoffMatrix(kind="LIMIT", p=1, entries=_pair_matrix(len(tilde_ops), values))


# --- F-bar aggregates ----------------------------------------------------------


def _fu_imag_parts(coll: CollectiveOperators, basis: np.ndarray) -> np.ndarray:
    """Im (F_{u_q})_{jk} = Im <u_q| sqrt(rho_p) L_jp L_kp sqrt(rho_p) |u_q>
    for the columns u_q of the (d^p, count) ``basis``.

    Returns shape (count, n, n).  The row index of the basis runs over
    the p sites, so a single-copy operator acts on site r as one product
    with ``w.reshape(d**r, d, -1)``: sqrt(rho_p) w = sqrt(rho)^(x)p w is p
    such products, and L_jp w = sum_r L_j^(r) w takes all n operators per
    site at once.
    """
    d = coll.d
    w = basis
    for r in range(coll.p):
        w = (coll.state.sqrt_rho @ w.reshape(d**r, d, -1)).reshape(w.shape)
    ops = coll.base_ops[:, None]  # (n, 1, d, d), broadcast over d**r
    cols = np.zeros((coll.n,) + w.shape, dtype=np.complex128)
    for r in range(coll.p):
        cols += (ops @ w.reshape(d**r, d, -1)).reshape(cols.shape)
    return np.imag(np.einsum("jaq,kaq->qjk", np.conj(cols), cols))


def state_eigenbasis(coll: CollectiveOperators) -> np.ndarray:
    """Eigenbasis U^(x)p of rho^(x)p as columns, rho = U D U+, the choice
    that turns the aligned F-bar entries into the T_p diagonal surrogate."""
    return linalg.kron_power(coll.state.eigen.vectors, coll.p)


def _signs_from_values(values: np.ndarray) -> np.ndarray:
    """+1 (as is) or -1 (transposed) per alignment value; ties take +1.

    A value is a tie when its size is within SIGN_TIE_RTOL of the largest
    |value| along the last axis, so the rule does not depend on the
    overall scale.
    """
    values = np.asarray(values, dtype=float)
    tol = SIGN_TIE_RTOL * np.max(np.abs(values), axis=-1, keepdims=True, initial=0.0)
    return np.where(values < -tol, -1.0, 1.0)


def first_best(values: np.ndarray) -> int:
    """Index of the first value within SIGN_TIE_RTOL of the largest, so
    exact ties go to the earliest candidate whatever the overall scale."""
    values = np.asarray(values, dtype=float)
    return int(np.argmax(values >= (1.0 - SIGN_TIE_RTOL) * np.max(values)))


def _optimize_norm_signs(imags: np.ndarray) -> np.ndarray:
    """The transpose pattern s (s_0 = +1) maximizing ||sum_q s_q A_q||_F,
    A_q = Im F_{u_q}, for at most OPTIMIZE_MAX_VECTORS vectors
    (KindMismatch otherwise).

    ||sum_q s_q A_q||_F^2 = s^T G s with G_qr = <A_q, A_r>_F, so one
    k x k Gram matrix scores all 2^(k-1) patterns at once.
    """
    count = len(imags)
    if count > OPTIMIZE_MAX_VECTORS:
        raise KindMismatch(
            f"exhaustive optimization limited to {OPTIMIZE_MAX_VECTORS} vectors, "
            f"basis has {count}"
        )
    flat = imags.reshape(count, -1)
    gram = flat @ flat.T
    patterns = _sign_patterns(count)
    squares = np.sum((patterns @ gram) * patterns, axis=1)
    return patterns[first_best(np.sqrt(np.maximum(squares, 0.0)))]


@functools.cache
def _sign_patterns(count: int) -> np.ndarray:
    """The 2^(count-1) transpose patterns with s_0 = +1 as rows, bit q of
    the row index flipping vector q + 1; built once per count and
    read-only (at most OPTIMIZE_MAX_VECTORS, so at most 2^11 rows)."""
    bits = (np.arange(2 ** (count - 1))[:, None] >> np.arange(count - 1)) & 1
    patterns = np.ones((len(bits), count))
    patterns[:, 1:] -= 2.0 * bits
    return _read_only(patterns)[0]


_bases: dict[tuple[int, int], np.ndarray] = {}


def _computational_basis(d: int, p: int) -> np.ndarray:
    """I_d^(x)p as columns, refused by kron_power's cap before it is
    built; read-only, and kept per (d, p) when it has at most
    OPTIMIZE_MAX_VECTORS columns (the exhaustive F-bar of small p)."""
    basis = _bases.get((d, p))
    if basis is None:
        basis, = _read_only(linalg.kron_power(np.eye(d), p))
        if len(basis) <= OPTIMIZE_MAX_VECTORS:
            _bases[(d, p)] = basis
    return basis


def _fbar_matrix(p: int, fbar_im: np.ndarray, **meta) -> TradeoffMatrix:
    fbar_im = (fbar_im - fbar_im.T) / 2.0  # exact skew symmetry
    return TradeoffMatrix(kind="FBAR_IM", p=p, entries=fbar_im, meta=meta)


def _resolve_signs(signs: Sequence[float], count: int) -> np.ndarray:
    """The explicit choice as floats; KindMismatch unless ``count`` real
    numbers, each +1 or -1 (so no strings and no booleans)."""
    arr = np.asarray(signs)
    if arr.shape != (count,) or arr.dtype.kind not in "iuf" or np.any(np.abs(arr) != 1):
        raise KindMismatch(f"signs must be {count} entries of +1 or -1, got {signs!r}")
    return arr.astype(float)


def compute_fbar_im(
    coll: CollectiveOperators, basis: np.ndarray | None, signs: Signs
) -> TradeoffMatrix:
    """Imaginary part of F-bar = sum_q s_q-adjusted F_{u_q} over a
    supplied basis of (C^d)^(x)p: the columns u_q of a (d^p, count) array
    with sum_q |u_q><u_q| = I (DimMismatch, IncompleteBasis), the
    computational basis for None.

    Transposing a Hermitian F_{u_q} flips its imaginary part, so a sign
    choice acts as s_q = +-1 on Im F_{u_q}.  ``signs`` may be the
    sequence of s_q, AlignEntry(j,k) (align within ``basis``) or
    OptimizeNorm() (exhaustive Frobenius-norm maximization, small bases
    only); ``meta["signs"]`` holds the s_q taken, as ints.  With tilde
    operators in ``coll`` the norm it maximizes is the one the F-bar bound
    reads.  The AutoAlign candidates, which switch to the commutator
    eigenbasis of each irrep block, come from :func:`block_pass`.

    For bases of at most OPTIMIZE_MAX_VECTORS vectors, the computational
    basis (:func:`_computational_basis`) and OptimizeNorm's sign patterns
    (:func:`_sign_patterns`) are built once per process and read-only.
    """
    if basis is None:
        basis = _computational_basis(coll.d, coll.p)
    basis = np.asarray(basis)
    if basis.ndim != 2 or len(basis) != coll.dim:
        raise DimMismatch(
            f"basis has shape {basis.shape}, ({coll.d}^{coll.p} = {coll.dim}, count) expected"
        )
    dev = float(np.max(np.abs(basis @ dagger(basis) - np.eye(coll.dim))))
    if dev > 1e-9:
        raise IncompleteBasis(f"sum |u><u| deviates from I by {dev:.3e}")
    count = basis.shape[1]
    imags = _fu_imag_parts(coll, basis)
    if isinstance(signs, AlignEntry):
        _check_pair(signs.j, signs.k, coll.n)
        sign_arr = _signs_from_values(imags[:, signs.j, signs.k])
        strategy = f"align_entry({signs.j},{signs.k})"
    elif isinstance(signs, OptimizeNorm):
        sign_arr = _optimize_norm_signs(imags)
        strategy = "optimize_norm"
    else:
        sign_arr = _resolve_signs(signs, count)
        strategy = "explicit"
    # The np.dot that tensordot makes on the flattened stack, without its
    # set-up: the same bits.  (The stack is a strided view, on which @
    # can round differently.)
    fbar_im = np.dot(sign_arr, imags.reshape(count, -1)).reshape(imags.shape[1:])
    return _fbar_matrix(
        coll.p, fbar_im, strategy=strategy, signs=tuple(sign_arr.astype(int).tolist()),
    )
