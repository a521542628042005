"""Upper and lower bounds on the incompatibility measure Gamma_p.

Gamma_p = (1/nu) Tr[F_Q^-1 Cov^-1] under the optimal measurement on at
most p copies equals n exactly when the quantum Cramer-Rao bound is
saturated; every bound here controls the gap to n.  The module also
provides the Cauchy-Schwarz transforms to weighted-covariance bounds,
the classical reference constants, and the saturation-condition checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    InvalidN,
    InvalidWeight,
    KindMismatch,
    NotPsd,
    NotPure,
    RldUndefined,
)
from .logderiv import FisherData, tilde_fisher_im
from .states import EvaluatedState
from .tensor import TradeoffMatrix

PAIR_COEFF_NAME = "pair"  # 1/(4(n-1))


def f_of_n(n: int) -> float:
    """Piecewise coefficient of the squared Frobenius term.

    max{1/(4(n-1)), (n-2)/(n-1)^2, 1/5}: the first branch wins at n = 2,
    the middle one at n = 3, 4, and 1/5 from n = 5 on.
    """
    if n < 2:
        raise InvalidN(f"need n >= 2, got {n}")
    return max(1.0 / (4.0 * (n - 1)), (n - 2.0) / (n - 1.0) ** 2, 0.2)


def pair_coefficient(n: int) -> float:
    """1/(4(n-1)): the coefficient valid for pairwise-assembled matrices."""
    if n < 2:
        raise InvalidN(f"need n >= 2, got {n}")
    return 1.0 / (4.0 * (n - 1))


def _check_kind(tm: TradeoffMatrix, expected: str) -> None:
    if tm.kind != expected:
        raise KindMismatch(f"expected a {expected} matrix, got {tm.kind}")


def _check_n(tm: TradeoffMatrix, n: int) -> None:
    if tm.n != n:
        raise KindMismatch(f"matrix is {tm.n}x{tm.n} but n = {n}")


def pure_state_bound(state: EvaluatedState, fisher: FisherData) -> float:
    """n - f(n) ||F~_Im||_F^2 for pure states; p-independent."""
    if not state.is_pure:
        raise NotPure(f"support rank {state.support_rank} > 1")
    n = fisher.n
    ftil = tilde_fisher_im(fisher)
    return n - f_of_n(n) * float(np.sum(ftil * ftil))


def _pair_bound(tm: TradeoffMatrix, n: int, kind: str) -> float:
    _check_kind(tm, kind)
    _check_n(tm, n)
    m = tm.per_copy
    return n - pair_coefficient(n) * float(np.sum(m * m))


def cp_bound(c: TradeoffMatrix, n: int) -> float:
    """Gamma_p <= n - ||C_p/p||_F^2 / (4(n-1))."""
    return _pair_bound(c, n, "C")


def tp_bound(t: TradeoffMatrix, n: int) -> float:
    """Gamma_p <= n - ||T_p/p||_F^2 / (4(n-1))."""
    return _pair_bound(t, n, "T")


def fbar_bound(fbar: TradeoffMatrix, n: int, f_coeff: float | None = None) -> float:
    """Gamma_p <= n - f(n) ||Fbar_Im / p||_F^2 for an F-bar_Im of tilde
    operators L~ = F_Q^(-1/2) L.

    The f(n) coefficient is only valid for aggregates built from a single
    basis/transpose choice, which is what compute_fbar_im and each
    AutoAlign candidate of block_sweep (``fbar=True``) are.  ``f_coeff``
    overrides the default max{...} coefficient; any of the three branch
    values yields a valid (possibly looser) bound.
    """
    _check_kind(fbar, "FBAR_IM")
    _check_n(fbar, n)
    m = fbar.per_copy
    f = f_of_n(n) if f_coeff is None else float(f_coeff)
    return n - f * float(np.sum(m * m))


def rld_standard_bound(fisher: FisherData) -> float:
    """Tr[F_Q^-1 F_Re^RLD] - ||F_Q^(-1/2) F_Im^RLD F_Q^(-1/2)||_1.

    Holds under any measurement, so it is p-independent.  The value can
    exceed n (the bound is then trivially true); it is reported raw.
    """
    if fisher.f_rld is None:
        raise RldUndefined("no RLD Fisher matrix available")
    s = fisher.inv_sqrt
    return fisher.rld_trace - linalg.trace_norm(s @ fisher.f_rld_im @ s)


def rld_cp_bound(c_rld: TradeoffMatrix, fisher: FisherData, n: int) -> float:
    """Tr[F_Q^-1 F_Re^RLD] - ||C_p^RLD/p||_F^2 / (4(n-1))."""
    _check_kind(c_rld, "C_RLD")
    _check_n(c_rld, n)
    if fisher.f_rld is None:
        raise RldUndefined("no RLD Fisher matrix available")
    m = c_rld.per_copy
    return fisher.rld_trace - pair_coefficient(n) * float(np.sum(m * m))


def gamma_inf_lower(fisher: FisherData, n: int) -> float:
    """Gamma_inf >= n^2 / (n + ||F~_Im||_1).

    The derivation rests on one premise: at p = infinity, the limit of
    collective measurements on ever more copies, the Holevo bound is
    attainable, so that every real V >= Z(X) at a locally unbiased X,
    Z(X)_jk = Tr(rho X_j X_k), is the limit of some nu Cov (Holevo; Kahn
    & Guta, CMP 289, 597 (2009); Yamagata, Fujiwara & Gill, Ann. Stat.
    41, 2197 (2013)).  This is the p = infinity end of the paper's
    hierarchy, where its saturation condition becomes the weak
    commutative condition.  In the tilde frame the canonical X = L~ has
    Z = I + i F~_Im, dominated by V = I + |i F~_Im|; then
    Gamma_inf >= Tr V^-1 >= n^2 / Tr V by Cauchy-Schwarz, and
    Tr V = n + ||F~_Im||_1.

    F~_Im is real antisymmetric, so its singular values are the
    |eigenvalues| of the Hermitian i F~_Im: one ``eigvalsh``.
    """
    if fisher.n != n:
        raise KindMismatch(f"fisher is {fisher.n}-parameter but n = {n}")
    norm = float(np.sum(np.abs(np.linalg.eigvalsh(1j * tilde_fisher_im(fisher)))))
    return n * n / (n + norm)


def gamma_inf_upper(fisher: FisherData, n: int) -> float:
    """Gamma_inf <= n - ||F~_Im||_F^2 / (4(n-1)): the p -> infinity C_p bound."""
    ftil = tilde_fisher_im(fisher)
    return n - pair_coefficient(n) * float(np.sum(ftil * ftil))


class CsTransforms(NamedTuple):
    fq_cov_lower: float  # lower bound on nu Tr[F_Q Cov]
    w_cov_lower: float  # lower bound on nu Tr[W Cov]


def _sqrt_trace_psd(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(linalg.hermitian_part(m))
    tol = linalg.relative_rank_tol(w)
    if float(np.min(w)) < -max(tol, 1e-12):
        raise NotPsd(f"matrix has eigenvalue {float(np.min(w)):.3e}")
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def cs_transforms(
    gamma_upper: float,
    fisher: FisherData,
    w: np.ndarray,
    n: int,
) -> CsTransforms:
    """Cauchy-Schwarz transforms of an upper bound on Gamma_p.

    nu Tr[F_Q Cov] >= n^2 / gamma_upper and
    nu Tr[W Cov] >= (Tr sqrt(F_Q^(-1/2) W F_Q^(-1/2)))^2 / gamma_upper;
    both outputs are the nu-scaled quantities.
    """
    if gamma_upper <= 0:
        raise InvalidN(f"gamma upper bound must be positive, got {gamma_upper}")
    w = np.asarray(w, dtype=np.complex128)
    wv = np.linalg.eigvalsh(linalg.hermitian_part(w))
    if float(np.min(wv)) < -1e-10 * max(1.0, float(np.max(np.abs(wv)))):
        raise InvalidWeight(f"weight matrix has eigenvalue {float(np.min(wv)):.3e}")
    s = fisher.inv_sqrt
    ft_w = s @ w @ s
    return CsTransforms(
        fq_cov_lower=n * n / gamma_upper,
        w_cov_lower=_sqrt_trace_psd(ft_w) ** 2 / gamma_upper,
    )


@dataclass(frozen=True)
class ReferenceBounds:
    gill_massar: float  # Gamma_1 <= d - 1
    zhu_hayashi: float  # Gamma_2 <= 3(d-1)/2
    gill_massar_nontrivial: bool
    zhu_hayashi_nontrivial: bool


def reference_bounds(d: int, n: int) -> ReferenceBounds:
    """Classical comparison constants with nontriviality flags."""
    if d < 2:
        raise InvalidN(f"need dimension d >= 2, got {d}")
    gm = float(d - 1)
    zh = 1.5 * (d - 1)
    return ReferenceBounds(
        gill_massar=gm,
        zhu_hayashi=zh,
        gill_massar_nontrivial=n > gm,
        zhu_hayashi_nontrivial=n > zh,
    )


class SaturationFlags(NamedTuple):
    partial_commutative: bool
    weak_commutative: bool


def saturation_check(
    c_over_p: TradeoffMatrix | np.ndarray,
    f_im_tilde: np.ndarray,
    tol: float = 1e-8,
) -> SaturationFlags:
    """Necessary saturation conditions for the QCRB.

    partial: C_p/p = 0 (all sandwiched commutators vanish);
    weak: F~_Im = 0 (expectation of every commutator vanishes).
    Neither flag claims sufficiency.
    """
    m = c_over_p.per_copy if isinstance(c_over_p, TradeoffMatrix) else np.asarray(c_over_p)
    partial = bool(np.max(np.abs(m)) <= tol)
    weak = bool(np.max(np.abs(np.asarray(f_im_tilde))) <= tol)
    return SaturationFlags(partial_commutative=partial, weak_commutative=weak)


# --- composite reports ----------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    """One named bound value with provenance.

    ``kind`` is "upper"/"lower" (bounds on Gamma at ``p``; ``p`` is None
    for p-independent statements and the string "inf" for p -> infinity)
    or "reference" for comparison constants and non-Gamma quantities.
    """

    name: str
    value: float
    kind: str
    p: int | str | None
    tightest: bool = False
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BoundReport:
    """A collection of bounds for one evaluated state."""

    n: int
    entries: tuple[BoundEntry, ...]

    def at_p(self, p: int) -> list[BoundEntry]:
        return [e for e in self.entries if e.p == p or e.p is None]

    def upper_values(self, p: int) -> dict[str, float]:
        return {e.name: e.value for e in self.at_p(p) if e.kind == "upper"}

    def validate(self, atol: float = 1e-9) -> None:
        # Upper bounds of the n-minus-gap family never exceed n; RLD-based
        # uppers may exceed n (then trivially true) and are exempt.
        for e in self.entries:
            if e.kind == "upper" and not e.name.startswith("rld"):
                if e.value > self.n + atol:
                    raise KindMismatch(f"{e.name} = {e.value} exceeds n = {self.n}")
        inf_lowers = [e.value for e in self.entries if e.kind == "lower" and e.p == "inf"]
        inf_uppers = [e.value for e in self.entries if e.kind == "upper" and e.p in ("inf", None)]
        for lo in inf_lowers:
            for up in inf_uppers:
                if lo > up + atol:
                    raise KindMismatch(f"lower {lo} exceeds upper {up} at p = inf")


