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
Pi_lambda(sqrt D) = det(sqrt D)^k Pi_mu(sqrt D).  So on every block
lambda = mu + k(1, ..., 1) the weighted image S pi_lambda(C) S of a
traceless C is that of mu times m_lambda det(D)^k, and a trace norm over
the m_lambda copies of a block is m_lambda times the block's.
:func:`block_sweep` reads C_p, C_p^RLD and the AutoAlign F-bar_Im
candidates of every p of a list from one walk over the reduced shapes
(:func:`reduced_blocks`).  Only the largest block bounds the memory, and
the dimension cap bounds the largest block.

:func:`compute_fbar_im`, F-bar for p copies of the state and the
single-copy operators over a supplied basis of (C^d)^(x)p (a
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


# --- the block walk -----------------------------------------------------------


#: Shapes of at most this dimension are solved in groups, zero-padded to
#: the largest dimension of their group; each larger shape is a group of
#: its own, unpadded, where LAPACK's flops outweigh the cost of a call
#: (the rule and its measurements: :func:`_walk_plan`).
GROUP_MAX_DIM = 24

#: Bytes of a group's padded real generators (shapes x d^2 x D^2 floats):
#: a group's arrays stay within a few stacks of STACK_BYTES.
GROUP_BYTES = 256 << 10


@dataclass(frozen=True)
class _GroupPlan:
    """One group of reduced shapes mu, by increasing dimension ``dims``,
    and per block lambda = mu + k(1, ..., 1) it serves: the index of its
    shape in the group, the row of its p in the walk's p list, k and
    log m_lambda."""

    shapes: tuple[tuple[int, ...], ...]
    dims: np.ndarray
    shape_of: np.ndarray
    row: np.ndarray
    k: np.ndarray
    log_m: np.ndarray


def _walk_plan(ps: tuple[int, ...], d: int) -> list[_GroupPlan]:
    """The groups of the walk over the distinct p of ``ps`` (in that
    order) at local dimension d, from the partitions alone: no matrix is
    allocated.

    The reduced shapes are sorted by dimension.  Those of dimension at
    most GROUP_MAX_DIM fill groups in that order, a new group starting
    where the padded generators of the next shape would pass GROUP_BYTES;
    each larger shape is a group of its own.  The rule reads dimensions
    only, so a shape's padding, and with it every number it gives, does
    not depend on the state, the operators or STACK_BYTES.  It was set on
    2 vCPUs with one OpenBLAS thread.  A complex eigvalsh costs about 1 us
    per matrix at dimension 4, 19 us at 24 and 147 us at 64, against some
    30 us of Python and call cost per group, so padding pays at small
    dimensions and not at large ones: padding every shape of a random
    d = 4, p <= 5 walk to its largest dimension doubled its time (8.9 ->
    18.6 ms).  The four dense-ladder walks (qubit3 cp and rld_cp over p =
    1..10, fbar over 4..9; qutrit8 cp over 1..5, fbar over 3..4) took
    1996 us one shape at a time, 1327 us with groups whose dimensions lie
    within a factor 2, and 1154 us with this rule; a limit of 32 in place
    of 24 read the same, 16 or 12 more.

    The groups come largest first, so the memory freed by a group serves
    the next, smaller one.  In increasing order every larger array took
    fresh pages: qubit3 cp at p = 400 made 63 580 minor page faults
    against 3 267, and took 10 % longer.

    A plan is built on every call (20 to 45 us for those walks, 8 us for a
    single p = 1): only a process that walks the same p list again could
    reuse one.
    """
    walk: dict[tuple[int, ...], list[tuple[int, int, float]]] = {}
    for row, p in enumerate(ps):
        for shape, log_m in zip(schur.partitions(p, d), _log_multiplicities(p, d).tolist()):
            k = shape[-1]
            walk.setdefault(tuple(r - k for r in shape), []).append((row, k, log_m))
    dim_of = {mu: schur.irrep_dim(mu) for mu in walk}
    runs: list[list[tuple[int, ...]]] = []
    for mu in sorted(walk, key=dim_of.__getitem__):
        dim = dim_of[mu]
        if not runs or dim > GROUP_MAX_DIM or 8 * d * d * dim**2 * (len(runs[-1]) + 1) > GROUP_BYTES:
            runs.append([])  # a new group
        runs[-1].append(mu)
    groups = []
    for run in runs:
        blocks = [(i, *block) for i, mu in enumerate(run) for block in walk[mu]]
        shape_of, row, k = np.array([b[:3] for b in blocks], dtype=np.intp).T
        groups.append(_GroupPlan(
            tuple(run), np.array([dim_of[mu] for mu in run]), shape_of, row, k,
            np.array([b[3] for b in blocks]),
        ))
    return groups[::-1]


@functools.cache
def _log_multiplicities(p: int, d: int) -> np.ndarray:
    """log m_lambda of every shape of ``schur.partitions(p, d)``, in its
    order: built once per (p, d), one float per shape, and read-only."""
    logs = [math.log(schur.multiplicity(shape)) for shape in schur.partitions(p, d)]
    return _read_only(np.array(logs))[0]


@dataclass(frozen=True)
class ShapeGroup:
    """The reduced shapes mu (mu_d = 0) of a planned group ``plan``,
    solved together, built for one state.

    The G shapes, of dimensions ``plan.dims`` (increasing), are
    zero-padded to the largest, D.  ``s[i]`` is the diagonal of
    Pi_mu(sqrt D) of shape i in the Gelfand–Tsetlin basis over its
    largest entry, with rho = U D U+, and 0 on the padded rows; ``gens[i]``
    holds its real pi_mu(E_ab) flattened to a (d^2, D^2) array, so that
    one matrix product maps a stack of single-copy operators A to their
    images:

        pi(A) = pi_mu(U+ A U) = (U+ A U).reshape(count, d^2) @ gens[i].

    Per served block of the plan, ``scale`` = m_lambda det(D)^k
    (max Pi_mu(sqrt D))^2, summed in log space so that large p neither
    under- nor overflows, so that on lambda

        sqrt(m_lambda) Pi_lambda(sqrt D) = sqrt(scale) s,
        pi_lambda(A) = pi(A) + k Tr(A) I.

    A block with k >= 1 of a rank-deficient rho has scale 0.
    """

    plan: _GroupPlan
    s: np.ndarray
    gens: np.ndarray
    scale: np.ndarray


def reduced_blocks(state: EvaluatedState, p_list: Sequence[int]) -> Iterator[ShapeGroup]:
    """Yield the groups of reduced shapes of the walk over ``p_list``,
    one at a time: the shapes mu of the blocks lambda = mu + k(1, ..., 1)
    of every p in ``p_list``, each listed once, as :func:`_walk_plan`
    groups them."""
    return _shape_groups(state, _walk_plan(tuple(dict.fromkeys(p_list)), state.dim))


def _shape_groups(
    state: EvaluatedState, plans: Sequence[_GroupPlan]
) -> Iterator[ShapeGroup]:
    """The planned groups ``plans`` for ``state``, one at a time."""
    d = state.dim
    values = state.eigen.values
    sqrt_d = np.sqrt(np.where(values > state.rank_tol, values, 0.0))  # as sqrt_rho
    log_det = sum(map(math.log, sqrt_d)) if sqrt_d.all() else -math.inf  # det(sqrt D)
    for plan in plans:
        count, dim = len(plan.shapes), int(plan.dims[-1])
        if count == 1:
            weights, gens = schur.gt_basis(plan.shapes[0])
            weights, gens = weights[None], gens.reshape(1, d * d, dim * dim)
        else:
            weights = np.zeros((count, dim, d))
            gens = np.zeros((count, d, d, dim, dim))
            for i, (mu, size) in enumerate(zip(plan.shapes, plan.dims.tolist())):
                weights[i, :size], gens[i, :, :, :size, :size] = schur.gt_basis(mu)
            gens = gens.reshape(count, d * d, dim * dim)
        log_s = schur.log_diag_power(weights, sqrt_d)
        log_s[np.arange(dim) >= plan.dims[:, None]] = -np.inf  # padded rows weigh 0
        top = np.max(log_s, axis=1)
        top[np.isneginf(top)] = 0.0  # no support: s = 0
        log_scale = plan.log_m + 2.0 * top[plan.shape_of]
        if log_det > -math.inf:
            log_scale += 2.0 * log_det * plan.k
        else:  # k * -inf, never 0 * -inf
            log_scale[plan.k > 0] = -np.inf
        yield ShapeGroup(plan, np.exp(log_s - top[:, None]), gens, np.exp(log_scale))
        del weights, gens  # before the next group is built


def _images(flat: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """pi_mu of each operator of the flattened eigenbasis stack ``flat``
    (one row per operator) on each shape of the (count, d^2, D^2)
    generators ``gens``, as a (count, operators, D, D) stack.  The
    product casts the real generators to complex for its own length
    only, so a group holds no complex copy of them while it is solved."""
    dim = math.isqrt(gens.shape[-1])
    return (flat @ gens).reshape(len(gens), len(flat), dim, dim)


def _eigenbasis_rows(vecs: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """U+ A U of each operator of a stack, one flattened row per operator."""
    return (dagger(vecs) @ ops @ vecs).reshape(len(ops), -1)


def _check_copies(p_list: Sequence[int], d: int, dim_cap: int) -> int:
    """KindMismatch for a p < 1 in ``p_list``, and DimensionOverflow when
    the largest irrep block at its largest p has more than ``dim_cap``
    rows; returns that block's dimension (0 for an empty list).  Reads the
    partitions of the largest p only, so it builds no block and no walk
    plan; the largest block grows with p, so one check covers every p of
    the list."""
    if not p_list:  # an empty walk builds nothing
        return 0
    if min(p_list) < 1:
        raise KindMismatch(f"copies count must be >= 1, got {min(p_list)}")
    p = max(p_list)
    largest = max(schur.irrep_dim(shape) for shape in schur.partitions(p, d))
    if largest > dim_cap:
        raise DimensionOverflow(
            f"largest irrep block at p={p} has dimension {largest}, above cap {dim_cap}"
        )
    return largest


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


#: Bytes of block matrices per stacked LAPACK call: a group of small
#: shapes takes every pair in one call, the largest shapes one or a few
#: pairs at a time.
STACK_BYTES = 256 << 10


def _stacks(count: int, dim: int) -> list[slice]:
    """Consecutive slices covering ``range(count)``, each about STACK_BYTES
    of complex dim x dim matrices and at least one."""
    size = max(1, STACK_BYTES // (16 * dim * dim))
    return [slice(start, start + size) for start in range(0, count, size)]


def _group_stacks(count: int, per: int, dim: int) -> list[tuple[slice, slice]]:
    """(shapes, items) slices covering ``count`` shapes of ``per`` dim x dim
    matrices each, a stack of about STACK_BYTES (at least one matrix) per
    entry: whole shapes while a shape's items fit in a stack, otherwise
    one shape's items in several stacks.  So every item of a shape meets
    the items of the same shapes (the items slice starts at 0) or of its
    own shape only."""
    size = max(1, STACK_BYTES // (16 * dim * dim))
    if per <= size:
        step = size // per
        return [(slice(g, g + step), slice(0, per)) for g in range(0, count, step)]
    return [(slice(g, g + 1), st) for g in range(count) for st in _stacks(per, dim)]


def _check_pair(j: int, k: int, n: int) -> None:
    if not (0 <= j < n and 0 <= k < n) or j == k:
        raise KindMismatch(f"pair ({j}, {k}) needs two distinct indices in [0, {n})")


def _sandwich(img: np.ndarray, s: np.ndarray) -> np.ndarray:
    """S img S in place, for a (shapes, items, D, D) stack and the
    (shapes, D) weight diagonals S."""
    img *= s[:, None, :, None]
    img *= s[:, None, None, :]
    return img


def _half_herm_norms(herm: np.ndarray) -> np.ndarray:
    """1/2 ||A||_1 of each Hermitian matrix of a stack (LAPACK reads one
    triangle)."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm)), axis=-1)


def _align_group(
    comms: np.ndarray, s: np.ndarray, gens: np.ndarray, fbar: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Stacked eigensolves of the pair images H_q = S pi_mu(C_q) S of the
    flattened commutators ``comms``; returns per shape and pair q 1/2
    ||H_q||_1 and, with ``fbar``, Re <H_q', V sgn V+> for every pair q' of
    the same shape (else None).  Without ``fbar`` each stack's images are
    formed for it alone and read by eigvalsh.  With it, a shape's images
    are formed with those of the shapes of its stack (or alone, when its
    pairs take several stacks) and die with them."""
    count, dim, pairs = len(s), s.shape[1], len(comms)
    norms = np.empty((count, pairs))
    shares = np.empty((count, pairs, pairs)) if fbar else None
    for gs, qs in _group_stacks(count, pairs, dim):
        if not fbar:
            norms[gs, qs] = _half_herm_norms(_sandwich(_images(comms[qs], gens[gs]), s[gs]))
            continue
        if qs.start == 0:  # the images of the shapes gs, every pair
            h = _sandwich(_images(comms, gens[gs]), s[gs])
            flat = h.reshape(len(h), 1, pairs, -1).view(np.float64).swapaxes(2, 3)
        vals, vecs = np.linalg.eigh(h[:, qs])
        sgn = _signs_from_values(vals / 2.0)
        rows = (vecs * sgn[..., None, :]) @ dagger(vecs)  # V sgn V+ per pair
        del vecs
        # One matrix-vector product per pair, against its own shape's
        # images: a product of the whole stack would round each row by
        # the stack's size.
        rows = rows.reshape(rows.shape[:2] + (1, -1)).view(np.float64)
        shares[gs, qs] = (rows @ flat)[:, :, 0]
        norms[gs, qs] = 0.5 * np.sum(np.abs(vals), axis=-1)
    return norms, shares


_EPS = float(np.finfo(float).eps)

#: Entries of a pair commutator -i (P - P+), P = A_j A_k, in rho's
#: eigenbasis at or below this many units d eps max|A_j| max|A_k|, the
#: rounding level of the product, count as zero in :func:`_pair_lines`.
LINE_TOL_UNITS = 16

#: Walks whose pair images on the largest block hold fewer entries
#: (pairs x dim^2) take the complex path: there its eigensolves cost less
#: than the line test and the per-group tables of the line gauge.  On the
#: grouped walk (2 vCPUs, one OpenBLAS thread) the paths cross near 1000
#: entries for C_p: complex against gauge 97 vs 103 us at 1008 (qutrit8,
#: p = 1..2), 117 vs 117 us at 363 (qubit3, p = 1..10) and 291 vs 143 us
#: at 1323 (qubit3, p = 20); for the candidates lower, near 300.  The
#: value stays at 2048 until a lower one is checked against every value,
#: tightest flag and F-bar strategy of the benchmark calls.
GAUGE_MIN_ENTRIES = 2048


@dataclass(frozen=True)
class _Lines:
    """The pair commutators of a walk when in rho's eigenbasis each is
    real diagonal or sits on one line, C_q = c_q E_ab + conj(c_q) E_ba
    with a < b.  ``rows`` holds the generator row a d + b of each of the
    L lines present.  Per pair, ``line_of`` is its line's index there (L
    for a diagonal pair), ``size`` is |c_q| and ``diag`` the diagonal
    (each 0 where it does not apply).  ``phase[q, q']`` = Re(c_q'
    e^(-i arg(c_q) kappa)), kappa = delta_aa' - delta_ab', for two line
    pairs and 0 otherwise."""

    rows: np.ndarray
    line_of: np.ndarray
    size: np.ndarray
    diag: np.ndarray
    phase: np.ndarray


def _pair_lines(
    rotated: np.ndarray, comms: np.ndarray, j_idx: np.ndarray, k_idx: np.ndarray
) -> _Lines | None:
    """The line structure of the (pairs, d, d) commutators ``comms`` of
    the eigenbasis operators ``rotated``, or None unless every pair is
    diagonal or on one line.  Entries at or below LINE_TOL_UNITS d eps
    max|A_j| max|A_k| are dropped first: a change E of C_q moves (C_p)_q
    by at most 1/2 ||sqrt(rho)^(x)p pi(E) sqrt(rho)^(x)p||_1 <= p ||E|| / 2
    <= p d max|E_ab| / 2, which is the product's own rounding error."""
    count, d = len(comms), rotated.shape[-1]
    flat = comms.reshape(count, d * d)
    top = np.max(np.abs(rotated).reshape(len(rotated), d * d), axis=1)
    tol = LINE_TOL_UNITS * d * _EPS * (top[j_idx] * top[k_idx])
    kept = np.abs(flat) > tol[:, None]
    a, b = np.divmod(np.arange(d * d), d)
    upper = kept & (b > a)  # the entries a d + b above the diagonal
    on_line = np.sum(upper, axis=1)
    diag = np.where(kept[:, :: d + 1], flat[:, :: d + 1].real, 0.0)
    if on_line.max() > 1 or np.any(diag[on_line == 1]):
        return None
    on_line = on_line == 1
    at = np.argmax(upper, axis=1)  # a d + b of a line pair's entry
    coef = np.where(on_line, flat[np.arange(count), at], 0.0)
    rows = sorted(set(at[on_line].tolist()))
    line_of = np.full(d * d, len(rows))
    line_of[rows] = range(len(rows))
    line_of = np.where(on_line, line_of[at], len(rows))
    a, b = a[at], b[at]
    kappa = (a[:, None] == a).astype(float) - (a[:, None] == b)
    angle = np.angle(coef)
    phase = np.abs(coef) * np.cos(angle - angle[:, None] * kappa)  # Re(c' e^(-i arg(c) kappa))
    phase[~on_line] = 0.0
    return _Lines(np.array(rows, dtype=int), line_of, np.abs(coef), diag, phase)


def _line_group(
    lines: _Lines, s: np.ndarray, gens: np.ndarray, fbar: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """What :func:`_align_group` gives for pair commutators with ``lines``
    structure, from one real eigh per shape and line (a, b) of R_ab =
    S (G_ab + G_ab^T) S, G_ab = pi_mu(E_ab), in stacks of about
    STACK_BYTES.

    With D = exp(i arg(c_q) W_a) for the GT weight W_a, D G_ab D+ =
    e^(i arg c_q) G_ab, so H_q = |c_q| D R_ab D+: 1/2 ||H_q||_1 = |c_q|
    1/2 ||R_ab||_1 and V sgn V+ = D P_ab D+ with P_ab = V_R sgn V_R^T.
    Against a line pair q' the phases leave Re <H_q', D P_ab D+> = 2
    ``phase[q, q']`` Tr(S G_a'b' S P_ab), against a diagonal one
    sum_r (H_q')_rr (P_ab)_rr.  A diagonal H_q needs no solve: V sgn V+ =
    sgn(H_q), +1 throughout (the tie rule) where H_q = 0.
    """
    (count, dim), lined = s.shape, len(lines.rows)
    d = math.isqrt(gens.shape[1])
    h = lines.diag @ gens[:, :: d + 1, :: dim + 1]  # pi_mu(E_aa) = diag(W_a)
    h *= (s * s)[:, None]  # S pi_mu(C_q) S of each diagonal pair
    g = _sandwich(gens[:, lines.rows].reshape(count, lined, dim, dim), s)
    r = g + g.swapaxes(2, 3)
    norms = np.zeros((count, lined + 1))  # 1/2 ||R_ab||_1, and 0 at index L
    shares = None
    if not fbar:
        for gs, qs in _group_stacks(count, lined, dim):
            norms[gs, qs] = _half_herm_norms(r[gs, qs])
    else:
        traces = np.zeros((count, lined + 1, lined + 1))  # Tr(S G_l' S P_l)
        ys = np.ones((count, lined + 1, dim))  # the diagonal of V sgn V+ per line
        flat = g.reshape(count, 1, lined, dim * dim).swapaxes(2, 3)
        for gs, qs in _group_stacks(count, lined, dim):
            vals, vecs = np.linalg.eigh(r[gs, qs])
            proj = (vecs * _signs_from_values(vals)[..., None, :]) @ vecs.swapaxes(2, 3)
            norms[gs, qs] = 0.5 * np.sum(np.abs(vals), axis=-1)
            # one product per line, as in _align_group
            rows = proj.reshape(proj.shape[:2] + (1, -1))
            traces[gs, qs, :lined] = (rows @ flat[gs])[:, :, 0]
            ys[gs, qs] = proj.diagonal(axis1=2, axis2=3)
        on_line = lines.line_of < lined  # else a diagonal pair: sgn(H_q)
        ys = np.where(on_line[:, None], ys[:, lines.line_of], _signs_from_values(h))
        shares = (2.0 * lines.phase * traces[:, lines.line_of[:, None], lines.line_of]
                  + ys @ h.swapaxes(1, 2))
    return lines.size * norms[:, lines.line_of] + 0.5 * np.sum(np.abs(h), axis=2), shares


def _rld_group(
    rld_rows: np.ndarray, s: np.ndarray, gens: np.ndarray, traces: np.ndarray,
    shape_of: np.ndarray, ks: np.ndarray, j_idx: np.ndarray, k_idx: np.ndarray,
) -> np.ndarray:
    """1/2 ||P - P+||_1 per served block and pair, P = X_j X_k+ with X_j =
    S pi_mu(R_j) + k Tr(R_j) S on the block lambda_d = k of each entry of
    ``ks``, whose shape is entry ``shape_of`` (nondecreasing) of the group
    (weights ``s``, generators ``gens``), for the RLDs R with flattened
    eigenbasis rows ``rld_rows`` and traces ``traces``.  The images X of
    about STACK_BYTES of shapes are formed at a time, and their (block,
    pair) products go in stacks of about STACK_BYTES, one eigvalsh each,
    so no stack of every block is built."""
    (count, dim), n, pairs = s.shape, len(rld_rows), len(j_idx)
    out = np.empty(len(ks) * pairs)
    step = max(1, STACK_BYTES // (16 * n * dim * dim))
    for g0 in range(0, count, step):
        gs = slice(g0, g0 + step)
        xs = _images(rld_rows, gens[gs])
        xs *= s[gs, None, :, None]  # S pi_mu(R_j), rows weighted
        ts = traces[:, None] * s[gs, None, :]  # the diagonal Tr(R_j) S that k = 1 adds
        xs, ts = xs.reshape(-1, dim, dim), ts.reshape(-1, dim)
        start, stop = 0, len(out)  # the items of the blocks of the shapes gs
        if step < count:
            start, stop = pairs * np.searchsorted(shape_of, [g0, g0 + step])
        for st in _stacks(stop - start, dim):
            block, q = np.divmod(np.arange(start + st.start, min(start + st.stop, stop)), pairs)
            base = n * (shape_of[block] - g0)
            out[block * pairs + q] = _half_herm_norms(
                _rld_products(xs, ts, base + j_idx[q], base + k_idx[q], ks[block])
            )
    return out.reshape(len(ks), pairs)


def _rld_products(
    xs: np.ndarray, ts: np.ndarray, j: np.ndarray, k: np.ndarray, shift: np.ndarray
) -> np.ndarray:
    """i (P - P+) per item, P = X_j X_k+ for the operators ``j`` and ``k``
    and the block shift k of each item (see :func:`_rld_group`).  The
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
    that was not asked for is None.  ``candidates`` holds the
    auto_align(j,k) F-bar_Im matrices of every pair j < k as one (pairs,
    n, n) array, in :func:`_pair_indices` order; :func:`best_auto_align`
    picks one."""

    cp: TradeoffMatrix | None
    cp_rld: TradeoffMatrix | None
    candidates: np.ndarray | None


def block_sweep(
    state: EvaluatedState,
    ops: Sequence[np.ndarray],
    p_list: Sequence[int],
    rld_ops: Sequence[np.ndarray] | None = None,
    cp: bool = False,
    fbar: bool = False,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> dict[int, BlockPass]:
    """C_p, C_p^RLD and the AutoAlign F-bar_Im candidates at every p of
    ``p_list`` from one walk over the reduced shapes (:func:`reduced_blocks`)
    of ``state``, so each shape is built and each pair image solved once;
    a single p is the walk over a one-element list.

    Before any block or rotation it raises KindMismatch for a p < 1,
    DimensionOverflow when the largest block at the largest p of the list
    has more than ``dim_cap`` rows, and DimMismatch unless ``ops`` and
    ``rld_ops`` are n operators of shape d x d each.  ``ops`` are the n
    single-copy tilde SLDs L~ = F_Q^(-1/2) L, in which frame every p-local
    bound is stated.  C_p (``cp``) and the auto_align(j,k) candidates of
    every pair j < k (``fbar``) read them, and C_p^RLD reads ``rld_ops``,
    the n single-copy tilde RLDs.  Both are rotated into rho's eigenbasis
    once, the pair commutators formed there as -i (P - P+) with P =
    L~_j L~_k, and on a reduced shape with weight s all their images come
    from one matrix product with the shape's generators (pi([A, B]) =
    [pi(A), pi(B)]).  Pair q = (j, k) has the Hermitian image H_q =
    s pi_mu(-i [L~_j, L~_k]) s, and with H_q = V Lambda V+ and the scales
    c of the blocks lambda of each p

        (C_p)_q = 1/2 sum_lambda c sum_i |Lambda_i|,
        auto_align(q): F-bar_Im[q'] = 1/2 sum_lambda c Re <H_q', V sgn(Lambda) V+>,

    because Im <u|S L_j L_k S|u> = 1/2 <u|H_(j,k)|u> for every vector u.
    So one eigh per pair and shape serves every p where the shape recurs
    (a qubit sweep over p = 1..P makes O(P) eigensolves per pair), and
    entry (j, k) of auto_align(j,k) equals the C_p entry; without
    ``fbar``, C_p reads eigvalsh.  The signs take the tie rule on the
    alignment values Lambda/2, which does not depend on c.  A walk with
    one operator has no pair: C_p and C_p^RLD are 1 x 1 zeros and there
    are no candidates.

    The line gauge.  When the pair images of the largest block hold at
    least GAUGE_MIN_ENTRIES entries (pairs x dim^2), the walk first drops
    the entries of each rotated commutator at or below LINE_TOL_UNITS d
    eps max|L~_j| max|L~_k|, the rounding level of the product that formed
    them; that moves (C_p)_q by at most p d / 2 times the largest entry
    dropped.  If every pair is then real diagonal or sits on one line,
    c_q E_ab + conj(c_q) E_ba, a diagonal phase makes each line image real
    and the same up to |c_q| for every pair on that line, so each shape
    takes one real eigh per line present and none for a diagonal pair
    (:func:`_line_group`): 3 in place of 28 complex ones for qutrit8.  Any
    other family, random ones among them, and any smaller walk take the
    complex path above (:func:`_align_group`), which stays the reference;
    the two agree to rounding.  On the gauged path a pair that commutes to
    working precision has C_p entry 0 and its candidate takes every sign
    +1, the tie rule for H_q = 0, rather than signs of rounding noise.

    C_p^RLD takes P = X_j X_k+ with X_j = s pi_lambda(L~^R_j) = s
    (pi_mu(L~^R_j) + k Tr(L~^R_j) I) on each block and clips 1/2
    sum_lambda c ||P - P+||_1 at 2p; the products of every block a shape
    serves, and every pair, go into eigvalsh calls together.

    The shapes are walked in the groups of :func:`_walk_plan`, planned
    after the checks; a walk with no consumer plans none.  Every consumer
    takes one stacked call per group, split by STACK_BYTES over its
    (shape, pair) matrices, and a group's stacks die before the next
    group is built.  Each shape's results reach the rows of its p through
    a (p, shape) table of scales.  Padding is exact: a padded row has
    weight 0, so the pair images and the RLD shift k Tr(R) s vanish there;
    the extra eigenvalues are exact zeros, which add nothing to a trace
    norm, take +1 under the tie rule and meet only zero entries of the
    images in the AutoAlign shares.  The one-dimensional trivial shape
    mu = 0 is solved with the rest of its group: pi_mu vanishes there, so
    its pair images are zero and only the RLD shift gives it a share.  A
    shape's results do not depend on STACK_BYTES; padded solves can
    differ from unpadded ones in the last bits.
    """
    ps = tuple(dict.fromkeys(p_list))
    largest = _check_copies(ps, state.dim, dim_cap)
    ops = _operator_stack(ops, len(ops), state.dim, "the collective")
    n = len(ops)
    vecs = state.eigen.vectors
    j_idx, k_idx = _pair_indices(n)
    pairs = len(j_idx)
    solve = (cp or fbar) and pairs > 0  # n = 1 has no pair
    lines = None
    if solve:
        # -i [A_j, A_k] = -i (P - P+) with P = A_j A_k, for the Hermitian
        # operators A rotated into rho's eigenbasis once.
        rotated = dagger(vecs) @ ops @ vecs
        prods = rotated[j_idx] @ rotated[k_idx]
        comms = -1j * (prods - dagger(prods))
        if pairs * largest**2 >= GAUGE_MIN_ENTRIES:
            lines = _pair_lines(rotated, comms, j_idx, k_idx)
        comms = comms.reshape(pairs, -1)
    if rld_ops is not None:
        rld_ops = _operator_stack(rld_ops, n, state.dim, "C_p^RLD")
        rld_traces = np.trace(rld_ops, axis1=1, axis2=2)
        rld_rows = _eigenbasis_rows(vecs, rld_ops)
    # One row per p of the list.  A shape serves at most one block of each
    # p, so a (p, shape) table of the scales sums a group's shares into
    # the rows in one product; the RLD blocks of one shape differ in k.
    cp_vals = np.zeros((len(ps), pairs))
    rld_vals = np.zeros((len(ps), pairs))
    totals = np.zeros((len(ps), pairs * pairs)) if fbar else None
    plans = _walk_plan(ps, state.dim) if solve or rld_ops is not None else []
    for group in _shape_groups(state, plans):
        if not group.scale.any():  # zero blocks skipped
            continue
        plan = group.plan
        if solve:
            if lines is not None:
                norms, shares = _line_group(lines, group.s, group.gens, fbar)
            else:
                norms, shares = _align_group(comms, group.s, group.gens, fbar)
            weight = np.zeros((len(ps), len(group.s)))
            weight[plan.row, plan.shape_of] = group.scale
            if fbar:
                totals += weight @ shares.reshape(len(shares), -1)
            if cp:
                cp_vals += weight @ norms
        if rld_ops is not None:
            row, at, k, scale = plan.row, plan.shape_of, plan.k, group.scale
            if not scale.all():
                live = scale != 0.0
                row, at, k, scale = row[live], at[live], k[live], scale[live]
            np.add.at(rld_vals, row, scale[:, None] * _rld_group(
                rld_rows, group.s, group.gens, rld_traces, at, k, j_idx, k_idx
            ))
        del group  # before the generator builds the next group
    # Every p's matrices at once: one (len(ps), n, n) array per consumer
    # and one (len(ps), pairs, n, n) array of candidates.
    if cp:
        cp_mats = _pair_matrix(n, cp_vals)
    if rld_ops is not None:
        rld_mats = np.minimum(_pair_matrix(n, rld_vals), 2.0 * np.array(ps)[:, None, None])
    if fbar:
        upper = np.zeros((len(ps), pairs, n, n))
        upper[:, :, j_idx, k_idx] = 0.5 * totals.reshape(len(ps), pairs, pairs)
        skew = upper - np.swapaxes(upper, 2, 3)
        cands = (skew - np.swapaxes(skew, 2, 3)) / 2.0  # exact skew symmetry
    return {
        p: BlockPass(
            TradeoffMatrix("C", p, cp_mats[row]) if cp else None,
            TradeoffMatrix("C_RLD", p, rld_mats[row]) if rld_ops is not None else None,
            cands[row] if fbar else None,
        )
        for row, p in enumerate(ps)
    }


@dataclass(frozen=True)
class CollectiveOperators:
    """p copies of ``state`` and the n operators ``base_ops`` as one complex
    (n, d, d) stack.  It, :func:`build_collective`, :func:`compute_cp` and
    :func:`compute_cp_rld` stay only because the benchmark tracer
    (``perfbench/tracing.py``) wraps them by name and reads ``p`` off the
    collective; they go when the package records its own trace (ROADMAP.md,
    item 1b).  The library walks with :func:`block_sweep`."""

    p: int
    state: EvaluatedState
    base_ops: np.ndarray


def build_collective(
    state: EvaluatedState,
    ops: Sequence[np.ndarray],
    p: int,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> CollectiveOperators:
    """The collective of ``p`` copies of ``state`` and ``ops``, after the
    checks of :func:`block_sweep` at p; builds no block."""
    _check_copies((p,), state.dim, dim_cap)
    base_ops = _operator_stack(ops, len(ops), state.dim, "the collective")
    return CollectiveOperators(p=p, state=state, base_ops=base_ops)


def compute_cp(coll: CollectiveOperators) -> TradeoffMatrix:
    """(C_p)_{jk} = 1/2 ||sqrt(rho_p) [L~_jp, L~_kp] sqrt(rho_p)||_1 from
    :func:`block_sweep` at the one p of ``coll``, under the cap d^p, which
    bounds every block: a collective built under a larger cap than the
    default is not refused here."""
    p = coll.p
    return block_sweep(coll.state, coll.base_ops, [p], cp=True, dim_cap=coll.state.dim**p)[p].cp


def compute_cp_rld(coll: CollectiveOperators) -> TradeoffMatrix:
    """(C_p^RLD)_{jk} = min{1/2 ||sqrt(rho_p)(L~_jp L~_kp+ - L~_kp L~_jp+)sqrt(rho_p)||_1, 2p}
    for a collective of tilde RLDs, from :func:`block_sweep` at its one p
    under the cap d^p, as for :func:`compute_cp`."""
    p, rld = coll.p, coll.base_ops
    return block_sweep(coll.state, rld, [p], rld, dim_cap=coll.state.dim**p)[p].cp_rld


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


def _fu_imag_parts(
    state: EvaluatedState, ops: np.ndarray, p: int, basis: np.ndarray
) -> np.ndarray:
    """Im (F_{u_q})_{jk} = Im <u_q| sqrt(rho_p) L_jp L_kp sqrt(rho_p) |u_q>
    for the (n, d, d) stack ``ops`` and the columns u_q of the (d^p,
    count) ``basis``.

    Returns shape (count, n, n).  The row index of the basis runs over
    the p sites, so a single-copy operator acts on site r as one product
    with ``w.reshape(d**r, d, -1)``: sqrt(rho_p) w = sqrt(rho)^(x)p w is p
    such products, and L_jp w = sum_r L_j^(r) w takes all n operators per
    site at once.
    """
    d = state.dim
    w = basis
    for r in range(p):
        w = (state.sqrt_rho @ w.reshape(d**r, d, -1)).reshape(w.shape)
    cols = np.zeros((len(ops),) + w.shape, dtype=np.complex128)
    ops = ops[:, None]  # (n, 1, d, d), broadcast over d**r
    for r in range(p):
        cols += (ops @ w.reshape(d**r, d, -1)).reshape(cols.shape)
    return np.imag(np.einsum("jaq,kaq->qjk", np.conj(cols), cols))


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


def best_auto_align(p: int, candidates: np.ndarray) -> TradeoffMatrix:
    """The candidate of largest Frobenius norm among the (pairs, n, n)
    AutoAlign ``candidates`` of :func:`block_sweep` at p, ties going to
    the first pair (:func:`first_best`), labelled auto_align(j,k)."""
    q = first_best(np.linalg.norm(candidates, axis=(1, 2)))
    j, k = (int(idx[q]) for idx in _pair_indices(candidates.shape[-1]))
    return TradeoffMatrix("FBAR_IM", p, candidates[q], {"strategy": f"auto_align({j},{k})"})


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
    state: EvaluatedState,
    ops: Sequence[np.ndarray],
    p: int,
    basis: np.ndarray | None,
    signs: Signs,
) -> TradeoffMatrix:
    """Imaginary part of F-bar = sum_q s_q-adjusted F_{u_q} over a
    supplied basis of (C^d)^(x)p for p copies of ``state`` and the n
    single-copy operators ``ops`` (KindMismatch for p < 1, DimMismatch
    unless each is d x d): the columns u_q of a (d^p, count) array with
    sum_q |u_q><u_q| = I (DimMismatch, IncompleteBasis), or the
    computational basis for None, which needs no check.

    Transposing a Hermitian F_{u_q} flips its imaginary part, so a sign
    choice acts as s_q = +-1 on Im F_{u_q}.  ``signs`` may be the
    sequence of s_q, AlignEntry(j,k) (align within ``basis``) or
    OptimizeNorm() (exhaustive Frobenius-norm maximization, small bases
    only); ``meta["signs"]`` holds the s_q taken, as ints.  With tilde
    operators in ``ops`` the norm it maximizes is the one the F-bar bound
    reads.  The AutoAlign candidates, which switch to the commutator
    eigenbasis of each irrep block, come from :func:`block_sweep`.

    For bases of at most OPTIMIZE_MAX_VECTORS vectors, the computational
    basis (:func:`_computational_basis`) and OptimizeNorm's sign patterns
    (:func:`_sign_patterns`) are built once per process and read-only.
    """
    if p < 1:
        raise KindMismatch(f"copies count must be >= 1, got {p}")
    d = state.dim
    ops = _operator_stack(ops, len(ops), d, "the collective")
    if basis is None:  # I_d^(x)p: nothing to check
        basis = _computational_basis(d, p)
    else:
        basis = np.asarray(basis)
        if basis.ndim != 2 or len(basis) != d**p:
            raise DimMismatch(
                f"basis has shape {basis.shape}, ({d}^{p} = {d**p}, count) expected"
            )
        dev = float(np.max(np.abs(basis @ dagger(basis) - np.eye(d**p))))
        if dev > 1e-9:
            raise IncompleteBasis(f"sum |u><u| deviates from I by {dev:.3e}")
    count = basis.shape[1]
    imags = _fu_imag_parts(state, ops, p, basis)
    if isinstance(signs, AlignEntry):
        _check_pair(signs.j, signs.k, len(ops))
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
        p, fbar_im, strategy=strategy, signs=tuple(sign_arr.astype(int).tolist()),
    )
