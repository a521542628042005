"""Collective operators on tensor powers and the p-local tradeoff matrices.

Every collective operator here has the form
    site_sum(A, w, p) = sum_r w^(x)r (x) A (x) w^(x)(p-r-1),
built densely by :func:`site_sum`.  With w = I it is the collective
logarithmic derivative L_jp (used by C_p^RLD and F-bar); with w = rho it
is the sandwiched collective commutator of C_p, by the exact identity
    sqrt(rho^(x)p) [A_p, B_p] sqrt(rho^(x)p)
        = site_sum(sqrt(rho) [A, B] sqrt(rho), rho, p),
which holds because operators on distinct factors commute.  Tensor
powers themselves come from ``linalg.kron_power``; both refuse d^p
beyond the dimension cap.  The module computes C_p, C_p^RLD, T_p (exact
enumeration or Monte Carlo) and the basis-dependent aggregate F-bar_Im.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

import numpy as np

from . import linalg
from .errors import (
    EnumerationOverflow,
    IncompleteBasis,
    KindMismatch,
)
from .linalg import DEFAULT_DIM_CAP, dagger
from .logderiv import FisherData, qfim_inv_sqrt
from .states import EvaluatedState

#: Exact T_p enumeration is abandoned beyond this many occupation vectors.
DEFAULT_ENUM_CAP = 2_000_000

#: Exhaustive transpose optimization only below this basis size (2^(k-1) combos).
OPTIMIZE_MAX_VECTORS = 12

#: Sign tie-break width: alignment values inside +-this take "as is".
SIGN_TIE_ATOL = 1e-12


# --- sign-choice selectors ---------------------------------------------------

AS_IS = "asis"
TRANSPOSED = "transposed"


@dataclass(frozen=True)
class AutoAlign:
    """Use the eigenbasis of sqrt(rho_p)[L_jp, L_kp]sqrt(rho_p) and align
    transposes so entry (j, k) of the result equals the C_p entry."""

    j: int
    k: int


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
    are enumerated)."""

    max_vectors: int = OPTIMIZE_MAX_VECTORS


SignChoice = Sequence[str]
Signs = Union[SignChoice, AutoAlign, AlignEntry, OptimizeNorm]


@dataclass(frozen=True)
class UBasis:
    """A set of vectors resolving the identity: sum_q |u_q><u_q| = I."""

    vectors: np.ndarray  # shape (count, dim), rows are the vectors

    @classmethod
    def computational(cls, dim: int) -> "UBasis":
        return cls(vectors=np.eye(dim, dtype=np.complex128))

    @classmethod
    def from_columns(cls, columns: np.ndarray) -> "UBasis":
        return cls(vectors=np.asarray(columns, dtype=np.complex128).T.copy())

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def check_complete(self, atol: float = 1e-9) -> None:
        gram = dagger(self.vectors) @ self.vectors  # sum_q |u_q><u_q|
        dev = float(np.max(np.abs(gram - np.eye(self.dim))))
        if dev > atol:
            raise IncompleteBasis(f"sum |u><u| deviates from I by {dev:.3e}")


# --- collective operators ----------------------------------------------------


def site_sum(
    site_op: np.ndarray, weight: np.ndarray, p: int, dim_cap: int = DEFAULT_DIM_CAP
) -> np.ndarray:
    """sum_r weight^(x)r (x) site_op (x) weight^(x)(p-r-1) over the p sites.

    Built by the recursion S <- S (x) w + w^(x)k (x) A, so at most two
    d^p x d^p matrices are alive at once.
    """
    linalg.check_power_dim(site_op.shape[0], p, dim_cap)
    out = np.asarray(site_op, dtype=np.complex128)
    power = np.eye(1, dtype=np.complex128)
    for _ in range(p - 1):
        power = np.kron(power, weight)
        out = np.kron(out, weight)
        out += np.kron(power, site_op)
    return out


@dataclass(frozen=True)
class CollectiveOperators:
    """rho^(x)p with the collective operators of one derivative kind.

    ``base_ops`` are the single-copy operators the collective ones are
    built from.  ``rho_p``, ``sqrt_rho_p`` and ``ops`` build a d^p x d^p
    complex matrix each on every access, under the dimension cap.
    """

    p: int
    kind: str  # "sld" | "rld"
    tilded: bool
    base_rho: np.ndarray
    base_sqrt_rho: np.ndarray
    base_ops: tuple[np.ndarray, ...]
    dim_cap: int = DEFAULT_DIM_CAP

    @property
    def d(self) -> int:
        return self.base_rho.shape[0]

    @property
    def dim(self) -> int:
        return self.d**self.p

    @property
    def n(self) -> int:
        return len(self.base_ops)

    @property
    def rho_p(self) -> np.ndarray:
        return linalg.kron_power(self.base_rho, self.p, self.dim_cap)

    @property
    def sqrt_rho_p(self) -> np.ndarray:
        # sqrt(rho^(x)p) = sqrt(rho)^(x)p
        return linalg.kron_power(self.base_sqrt_rho, self.p, self.dim_cap)

    def collective(self, op: np.ndarray) -> np.ndarray:
        """sum_r I^(x)r (x) op (x) I^(x)(p-r-1)."""
        return site_sum(op, np.eye(self.d, dtype=np.complex128), self.p, self.dim_cap)

    @property
    def ops(self) -> tuple[np.ndarray, ...]:
        return tuple(self.collective(op) for op in self.base_ops)


def build_collective(
    state: EvaluatedState,
    ops: Sequence[np.ndarray],
    p: int,
    kind: str = "sld",
    tilded: bool = True,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> CollectiveOperators:
    """Collective operators for ``p`` copies of ``state``.

    ``ops`` are the single-copy logarithmic derivatives (tilde ones for
    the tradeoff matrices).  Raises DimensionOverflow when d^p exceeds
    the cap.
    """
    if p < 1:
        raise KindMismatch(f"copies count must be >= 1, got {p}")
    linalg.check_power_dim(state.dim, p, dim_cap)
    return CollectiveOperators(
        p=p,
        kind=kind,
        tilded=tilded,
        base_rho=state.rho,
        base_sqrt_rho=state.sqrt_rho,
        base_ops=tuple(np.asarray(o, dtype=np.complex128) for o in ops),
        dim_cap=dim_cap,
    )


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


def _require(coll: CollectiveOperators, kind: str, tilded: bool) -> None:
    if coll.kind != kind or (tilded and not coll.tilded):
        raise KindMismatch(
            f"collective operators of kind={coll.kind!r} tilded={coll.tilded} "
            f"where kind={kind!r} tilded={tilded} required"
        )


def _sandwiched_commutator(coll: CollectiveOperators, j: int, k: int) -> np.ndarray:
    """sqrt(rho_p) [L_jp, L_kp] sqrt(rho_p), as a site sum weighted by rho."""
    s = coll.base_sqrt_rho
    site = s @ linalg.commutator(coll.base_ops[j], coll.base_ops[k]) @ s
    return site_sum(site, coll.base_rho, coll.p, coll.dim_cap)


def compute_cp(coll: CollectiveOperators) -> TradeoffMatrix:
    """(C_p)_{jk} = 1/2 ||sqrt(rho_p) [L~_jp, L~_kp] sqrt(rho_p)||_1."""
    _require(coll, "sld", tilded=True)
    n = coll.n
    entries = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            entries[j, k] = entries[k, j] = 0.5 * linalg.trace_norm(
                _sandwiched_commutator(coll, j, k)
            )
    return TradeoffMatrix(kind="C", p=coll.p, entries=entries, meta={"tilded": True})


def compute_cp_rld(coll: CollectiveOperators) -> TradeoffMatrix:
    """(C_p^RLD)_{jk} = min{1/2 ||sqrt(rho_p)(L~_jp L~_kp+ - L~_kp L~_jp+)sqrt(rho_p)||_1, 2p}.

    The RLD product difference does not reduce to single sites, so the
    collective operators L~_jp are built in full.  With X_j = sqrt(rho_p) L~_jp
    the sandwiched difference is P - P+ for P = X_j X_k+.
    """
    _require(coll, "rld", tilded=True)
    n = coll.n
    s = coll.sqrt_rho_p
    xs = [s @ coll.collective(op) for op in coll.base_ops]
    del s  # free d^p x d^p before the pair products
    cap = 2.0 * coll.p
    entries = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            prod = xs[j] @ dagger(xs[k])
            prod -= dagger(prod)
            entries[j, k] = entries[k, j] = min(0.5 * linalg.trace_norm(prod), cap)
    return TradeoffMatrix(kind="C_RLD", p=coll.p, entries=entries, meta={"tilded": True})


def _diag_commutator_elements(
    state: EvaluatedState, tilde_ops: Sequence[np.ndarray], j: int, k: int
) -> np.ndarray:
    """c_i = <Psi_i|[L~_j, L~_k]|Psi_i> on the support (purely imaginary)."""
    comm = linalg.commutator(tilde_ops[j], tilde_ops[k])
    vecs = state.support_vectors
    vals = np.einsum("ai,ab,bi->i", np.conj(vecs), comm, vecs)
    return np.imag(vals)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All occupation vectors of ``parts`` nonnegative ints summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def composition_count(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def compute_tp_exact(
    state: EvaluatedState,
    tilde_ops: Sequence[np.ndarray],
    p: int,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> TradeoffMatrix:
    """Exact T_p by enumerating eigenvector occupation vectors.

    (T_p)_{jk} = 1/2 sum_k multinomial(p; k) prod_i lambda_i^{k_i}
                 |sum_i k_i <Psi_i|[L~_j, L~_k]|Psi_i>|,
    exact to floating precision (no sampling).  Multinomial weights are
    accumulated in log space.
    """
    m = state.support_rank
    count = composition_count(p, m)
    if count > enum_cap:
        raise EnumerationOverflow(
            f"{count} occupation vectors exceed enumeration cap {enum_cap}"
        )
    lam = state.support_values
    log_lam = np.log(lam)
    n = len(tilde_ops)
    cvals = [
        [_diag_commutator_elements(state, tilde_ops, j, k) for k in range(n)]
        for j in range(n)
    ]
    occupations = np.array(list(_compositions(p, m)), dtype=np.int64)
    log_fact = np.array([math.lgamma(i + 1) for i in range(p + 1)])
    log_w = (
        log_fact[p]
        - np.sum(log_fact[occupations], axis=1)
        + occupations.astype(float) @ log_lam
    )
    weights = np.exp(log_w)
    occupations = occupations.astype(float)
    entries = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            vals = np.abs(occupations @ cvals[j][k])
            entries[j, k] = entries[k, j] = 0.5 * float(weights @ vals)
    return TradeoffMatrix(
        kind="T", p=p, entries=entries, meta={"tilded": True, "method": "exact"}
    )


def derive_seed(seed: int, j: int, k: int) -> np.random.Generator:
    """Independent stream per (j, k) entry so parallel and serial runs agree."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(j), int(k))))


def compute_tp_monte_carlo(
    state: EvaluatedState,
    tilde_ops: Sequence[np.ndarray],
    p: int,
    samples: int,
    seed: int,
) -> TradeoffMatrix:
    """Monte Carlo T_p: sample mean of |sum_r c_{v_r}| over iid eigenvector
    draws, with a per-entry standard error reported in ``meta``."""
    if samples < 1:
        raise EnumerationOverflow(f"samples must be >= 1, got {samples}")
    lam = state.support_values
    probs = lam / float(np.sum(lam))
    n = len(tilde_ops)
    entries = np.zeros((n, n))
    stderr = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            c = _diag_commutator_elements(state, tilde_ops, j, k)
            rng = derive_seed(seed, j, k)
            counts = rng.multinomial(p, probs, size=samples)
            vals = 0.5 * np.abs(counts @ c)
            entries[j, k] = entries[k, j] = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
            stderr[j, k] = stderr[k, j] = se
    return TradeoffMatrix(
        kind="T",
        p=p,
        entries=entries,
        meta={"tilded": True, "method": "monte_carlo", "samples": samples, "seed": seed,
              "stderr": stderr},
    )


def limit_fim(state: EvaluatedState, tilde_ops: Sequence[np.ndarray]) -> TradeoffMatrix:
    """Entrywise p -> infinity limit of C_p/p: 1/2 |Tr(rho [L~_j, L~_k])|."""
    n = len(tilde_ops)
    entries = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            val = complex(np.trace(state.rho @ linalg.commutator(tilde_ops[j], tilde_ops[k])))
            entries[j, k] = entries[k, j] = 0.5 * abs(val)
    return TradeoffMatrix(kind="LIMIT", p=1, entries=entries, meta={"tilded": True})


# --- F-bar aggregates ----------------------------------------------------------


def _fu_imag_parts(coll: CollectiveOperators, basis: UBasis) -> np.ndarray:
    """Im (F_{u_q})_{jk} = Im <u_q| sqrt(rho_p) L_jp L_kp sqrt(rho_p) |u_q>.

    Returns shape (count, n, n).  Works on the whole basis block
    W = sqrt(rho_p) U at once, building one collective L_jp at a time.
    """
    w = coll.sqrt_rho_p @ basis.vectors.T
    cols = np.empty((coll.n,) + w.shape, dtype=np.complex128)
    for j, op in enumerate(coll.base_ops):
        cols[j] = coll.collective(op) @ w
    return np.imag(np.einsum("jaq,kaq->qjk", np.conj(cols), cols))


def state_eigenbasis(coll: CollectiveOperators) -> UBasis:
    """Eigenbasis of rho^(x)p, the choice that turns the aligned F-bar
    entries into the T_p diagonal surrogate."""
    es = linalg.eigh(coll.rho_p)
    return UBasis.from_columns(es.vectors)


def _commutator_eigenbasis(coll: CollectiveOperators, j: int, k: int) -> tuple[UBasis, np.ndarray]:
    """Eigenbasis of sqrt(rho_p)[L_jp, L_kp]sqrt(rho_p) and the alignment
    values a_q = (1/2i) <u_q| . |u_q> (half the imaginary eigenvalues)."""
    es = linalg.eigh(-1j * _sandwiched_commutator(coll, j, k))  # the commutator is i H
    return UBasis.from_columns(es.vectors), es.values / 2.0


def _signs_from_values(values: np.ndarray) -> np.ndarray:
    """+1 (as is) or -1 (transposed) per alignment value; ties take +1."""
    return np.where(values < -SIGN_TIE_ATOL, -1.0, 1.0)


def _resolve_signs(signs: Signs, count: int) -> np.ndarray:
    items = list(signs)
    if len(items) != count:
        raise KindMismatch(f"sign choice has {len(items)} entries for {count} vectors")
    arr = np.ones(count)
    for q, s in enumerate(items):
        if s in (AS_IS, +1, True):
            arr[q] = 1.0
        elif s in (TRANSPOSED, -1, False):
            arr[q] = -1.0
        else:
            raise KindMismatch(f"unknown sign selector {s!r}")
    return arr


def compute_fbar_im(
    coll: CollectiveOperators,
    basis: UBasis | None,
    signs: Signs,
    fisher: FisherData | None = None,
) -> TradeoffMatrix:
    """Imaginary part of F-bar = sum_q s_q-adjusted F_{u_q}.

    Transposing a Hermitian F_{u_q} flips its imaginary part, so a sign
    choice acts as +-1 on Im F_{u_q}.  ``signs`` may be an explicit
    per-vector selection, AlignEntry(j,k) (align within ``basis``),
    AutoAlign(j,k) (switch to the commutator eigenbasis; the (j,k) entry
    then reproduces the C_p entry), or OptimizeNorm() (exhaustive
    Frobenius-norm maximization, small bases only).

    For collectives built from un-tilded operators pass ``fisher`` so the
    norm optimization targets ||F_Q^(-1/2) . F_Q^(-1/2)||_F.
    """
    if isinstance(signs, AutoAlign):
        basis, align_vals = _commutator_eigenbasis(coll, signs.j, signs.k)
        sign_arr = _signs_from_values(align_vals)
        strategy = f"auto_align({signs.j},{signs.k})"
        imags = _fu_imag_parts(coll, basis)
    else:
        if basis is None:
            basis = UBasis.computational(coll.dim)
        basis.check_complete()
        imags = _fu_imag_parts(coll, basis)
        if isinstance(signs, AlignEntry):
            sign_arr = _signs_from_values(imags[:, signs.j, signs.k])
            strategy = f"align_entry({signs.j},{signs.k})"
        elif isinstance(signs, OptimizeNorm):
            if basis.count > signs.max_vectors:
                raise KindMismatch(
                    f"exhaustive optimization limited to {signs.max_vectors} vectors, "
                    f"basis has {basis.count}"
                )
            sandwich = None
            if not coll.tilded:
                if fisher is None:
                    raise KindMismatch("un-tilded collective needs fisher for optimization")
                sandwich = qfim_inv_sqrt(fisher)
            best = None
            best_norm = -1.0
            flip_bits = np.arange(basis.count - 1)
            for bits in range(2 ** (basis.count - 1)):
                cand = np.ones(basis.count)
                cand[1:] -= 2.0 * ((bits >> flip_bits) & 1)
                agg = np.tensordot(cand, imags, axes=1)
                scored = agg if sandwich is None else sandwich @ agg @ sandwich
                norm = float(np.linalg.norm(scored))
                if norm > best_norm + 1e-15:
                    best_norm = norm
                    best = cand
            sign_arr = best
            strategy = "optimize_norm"
        else:
            sign_arr = _resolve_signs(signs, basis.count)
            strategy = "explicit"
    fbar_im = np.tensordot(sign_arr, imags, axes=1)
    fbar_im = (fbar_im - fbar_im.T) / 2.0  # exact skew symmetry
    return TradeoffMatrix(
        kind="FBAR_IM",
        p=coll.p,
        entries=fbar_im,
        meta={
            "tilded": coll.tilded,
            "strategy": strategy,
            "signs": tuple(AS_IS if s > 0 else TRANSPOSED for s in sign_arr),
        },
    )
