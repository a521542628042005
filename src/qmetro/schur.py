"""Schur–Weyl decomposition of (C^d)^(x)p into Gelfand–Tsetlin irrep blocks.

    (C^d)^(x)p = (+)_lambda  V_lambda (x) P_lambda

over the partitions lambda of p with at most d rows.  gl(d) acts on
V_lambda (dimension dim_lambda, Weyl's formula) and S_p on P_lambda
(dimension m_lambda, the hook-length formula).  So every collective
operator pi(A) = sum_r A^(r) acts as pi_lambda(A) (x) I_{m_lambda}, and
every tensor power g^(x)p as Pi_lambda(g) (x) I_{m_lambda}.

In the orthonormal Gelfand–Tsetlin (GT) basis of V_lambda the matrices
pi_lambda(E_ab) of the matrix units are real, and Pi_lambda(D) of a
diagonal D is diagonal with entries prod_i D_i^{w_i}, where w is the
weight of the basis pattern.  Formulas: Molev, "Gelfand–Tsetlin bases
for classical Lie algebras", arXiv:math/0211289, section 2.3.

A shape lambda with lambda_d = k is mu = lambda - k(1, ..., 1) times
det^k: subtracting k from every entry maps its patterns to those of mu
in the same order, so pi_lambda(E_ab) = pi_mu(E_ab) + k delta_ab I and
the weights shift by k.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

Pattern = tuple[tuple[int, ...], ...]  # rows of lengths 1, 2, ..., d


def partitions(p: int, d: int) -> list[tuple[int, ...]]:
    """Partitions of p with at most d rows, padded with zeros to length d."""

    def parts(total: int, rows: int, largest: int) -> list[tuple[int, ...]]:
        if rows == 1:
            return [(total,)] if total <= largest else []
        # the rows below the head hold at most head each: head >= total / rows
        low = -(-total // rows)
        return [
            (head,) + tail
            for head in range(min(total, largest), low - 1, -1)
            for tail in parts(total - head, rows - 1, head)
        ]

    return parts(p, d, p)


def multiplicity(shape: tuple[int, ...]) -> int:
    """m_lambda, the dimension of the S_p irrep: Frobenius' form of the
    hook-length formula, p! prod_{i<j} (l_i - l_j) / prod_i l_i! with
    l_i = lambda_i + d - i, in O(d^2) integer steps however large p is."""
    d = len(shape)
    ls = [row + d - 1 - i for i, row in enumerate(shape)]
    num = math.factorial(sum(shape))
    for i, j in itertools.combinations(range(d), 2):
        num *= ls[i] - ls[j]
    return num // math.prod(math.factorial(l) for l in ls)


def irrep_dim(shape: tuple[int, ...]) -> int:
    """dim_lambda = prod_{i<j} (lambda_i - lambda_j + j - i) / (j - i) (Weyl)."""
    num = den = 1
    for i, j in itertools.combinations(range(len(shape)), 2):
        num *= shape[i] - shape[j] + j - i
        den *= j - i
    return num // den


def gt_patterns(shape: tuple[int, ...]) -> list[Pattern]:
    """GT patterns with top row ``shape``: row k-1 interlaces row k,
    lambda_{k,i} >= lambda_{k-1,i} >= lambda_{k,i+1}."""

    def below(row: tuple[int, ...]):
        ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
        return itertools.product(*ranges)

    def patterns(row: tuple[int, ...]):
        if len(row) == 1:
            yield (row,)
            return
        for lower in below(row):
            for rest in patterns(lower):
                yield rest + (row,)

    return list(patterns(tuple(shape)))


#: Bytes of GT bases kept for the rest of the process.  Nothing is
#: evicted: an increasing-p sweep meets its small shapes first, which a
#: least-recently-used policy would drop on every sequential walk.
CACHE_BYTES = 256 << 10

_cache: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}


def gt_basis(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Weights and the real orthonormal pi_lambda(E_ab) of one irrep.

    Returns ``(weights, gens)``: ``weights[q, a]`` is the E_aa eigenvalue
    of basis pattern q, and ``gens[a, b]`` is the dim x dim matrix of
    pi_lambda(E_ab).  E_{k,k+1} comes from the square-root GT formula,
    E_{k+1,k} is its transpose, and |a - b| > 1 follows by commutators
    E_ab = [E_{a,b-1}, E_{b-1,b}].

    A basis depends on the shape alone, so every caller in the process
    shares one copy: the arrays are read-only, and a basis is kept while
    all kept bases fit in CACHE_BYTES.  One that does not fit is built
    again at its next call.  A race between threads only builds a basis
    twice.
    """
    basis = _cache.get(shape)
    if basis is None:
        basis = _build_gt_basis(shape)
        for array in basis:
            array.flags.writeable = False
        kept = sum(w.nbytes + g.nbytes for w, g in _cache.values())
        if kept + basis[0].nbytes + basis[1].nbytes <= CACHE_BYTES:
            _cache[shape] = basis
    return basis


def _build_gt_basis(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    d = len(shape)
    pats = gt_patterns(shape)
    index = {pat: q for q, pat in enumerate(pats)}
    dim = len(pats)
    sums = np.array([[0] + [sum(row) for row in pat] for pat in pats])
    weights = np.diff(sums, axis=1).astype(float)
    gens = np.zeros((d, d, dim, dim))
    for a in range(d):
        gens[a, a] = np.diag(weights[:, a])
    for q, pat in enumerate(pats):
        # l_{k,i} = lambda_{k,i} - i + 1 (1-based i); rows are 0-based here.
        ls = [[lam - i for i, lam in enumerate(row)] for row in pat]
        for k in range(d - 1):  # E_{k,k+1} raises row k (length k + 1)
            row, upper = ls[k], ls[k + 1]
            lower = ls[k - 1] if k > 0 else []
            for i, l_ki in enumerate(row):
                raised = pat[k][:i] + (pat[k][i] + 1,) + pat[k][i + 1:]
                target = index.get(pat[:k] + (raised,) + pat[k + 1:])
                if target is None:
                    continue
                num = math.prod(l_ki - l for l in upper) * math.prod(l_ki - l + 1 for l in lower)
                den = math.prod(
                    (l_ki - l) * (l_ki - l + 1) for m, l in enumerate(row) if m != i
                )
                gens[k, k + 1, target, q] = math.sqrt(-num / den)
    for gap in range(2, d):
        for a in range(d - gap):
            b = a + gap
            x, y = gens[a, b - 1], gens[b - 1, b]
            gens[a, b] = x @ y - y @ x
    for a, b in itertools.combinations(range(d), 2):
        gens[b, a] = gens[a, b].T
    return weights, gens


def log_diag_power(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """log of the diagonal of Pi_lambda(diag(values)), prod_i values_i^{w_i}.

    Computed in log space so large p neither under- nor overflows; a zero
    value raised to a positive power gives -inf (a zero entry), never
    0 * log 0.
    """
    values = np.asarray(values, dtype=float)
    zero = values <= 0.0
    if not zero.any():
        return weights @ np.log(values)
    out = weights @ np.log(np.where(zero, 1.0, values))
    out[np.any(weights[:, zero] > 0, axis=1)] = -np.inf
    return out
