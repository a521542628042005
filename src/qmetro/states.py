"""Parametrized density-matrix families and their evaluation.

A :class:`StateFamily` is either *linear*, ``rho(x) = rho0 + sum_j x_j G_j``
with Hermitian traceless generators, or a black-box callable ``x -> rho``.
Evaluating a family at a working point produces an :class:`EvaluatedState`
holding the state, its eigensystem, the support, and the partial
derivatives (exact for linear families, central finite differences for
callables).

The n generators or derivatives are validated once, as one (n, d, d)
stack: Hermiticity and trace are checked on the whole stack at once, and
each error names the first offending index.  The fields stay tuples of
(d, d) arrays.  One eigensolve of rho serves the support, the PSD check
and ``sqrt_rho``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import DerivativeFailure, InvalidState, NonHermitian
from .linalg import EigenSystem

#: Absolute tolerance on trace(rho) = 1.
TRACE_ATOL = 1e-9

#: Most negative eigenvalue accepted for a working-point state.  Anything
#: below is rejected outright rather than clipped: silent clipping would
#: corrupt the logarithmic-derivative computations downstream.
EIG_FLOOR = -1e-10

#: Trace tolerance for derivative matrices.
DERIV_TRACE_ATOL = 1e-8


def _operator_stack(ms: Sequence[np.ndarray], d: int, label: str, atol: float) -> np.ndarray:
    """The operators ``ms`` as one (n, d, d) stack of ``d x d`` Hermitian matrices."""
    for j, m in enumerate(ms):
        if np.shape(m) != (d, d):
            raise InvalidState(f"{label} {j} has shape {np.shape(m)}, expected {(d, d)}")
    a = np.asarray(ms, dtype=np.complex128).reshape(-1, d, d)
    dev = np.max(np.abs(a - linalg.dagger(a)), axis=(1, 2), initial=0.0)
    message = f"{label} {{j}}: Hermitian symmetry violated by {{value:.3e}} (atol {atol:.1e})"
    linalg.check_each(dev, atol, NonHermitian, message)
    return a


@dataclass(frozen=True)
class StateFamily:
    """A parametrized family of density matrices.

    Exactly one of (``rho0``, ``generators``) or ``func`` is set.  The
    parameter count must be at least 2: the incompatibility measure is a
    multi-parameter notion.
    """

    dim: int
    n: int
    labels: tuple[str, ...]
    rho0: np.ndarray | None = None
    generators: tuple[np.ndarray, ...] | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def linear(
        cls,
        rho0: np.ndarray,
        generators: Sequence[np.ndarray],
        labels: Sequence[str] | None = None,
    ) -> "StateFamily":
        rho0 = linalg.check_hermitian(rho0)
        d = rho0.shape[0]
        tr = complex(np.trace(rho0))
        if abs(tr - 1.0) > 1e-10:
            raise InvalidState(f"trace(rho0) = {tr:.12g}, expected 1")
        n = len(generators)
        if n < 2:
            raise InvalidState(f"need n >= 2 parameters, got {n}")
        gens = _operator_stack(generators, d, "generator", linalg.HERMITIAN_ATOL)
        if labels is None:
            labels = tuple(f"x{j + 1}" for j in range(n))
        return cls(dim=d, n=n, labels=tuple(labels), rho0=rho0, generators=tuple(gens))

    @classmethod
    def from_callable(
        cls,
        dim: int,
        n: int,
        func: Callable[[np.ndarray], np.ndarray],
        labels: Sequence[str] | None = None,
    ) -> "StateFamily":
        if n < 2:
            raise InvalidState(f"need n >= 2 parameters, got {n}")
        if labels is None:
            labels = tuple(f"x{j + 1}" for j in range(n))
        return cls(dim=dim, n=n, labels=tuple(labels), func=func)

    @property
    def is_linear(self) -> bool:
        return self.rho0 is not None

    def rho(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidState(f"working point has shape {x.shape}, expected ({self.n},)")
        if self.is_linear:
            out = self.rho0.copy()
            for xj, g in zip(x, self.generators):
                out = out + xj * g
            return out
        return np.asarray(self.func(x), dtype=np.complex128)


@dataclass(frozen=True)
class EvaluatedState:
    """A state family evaluated at a working point.

    Holds the full eigensystem of rho; support quantities are exposed as
    properties filtered by ``rank_tol``.
    """

    rho: np.ndarray
    derivs: tuple[np.ndarray, ...]
    eigen: EigenSystem
    rank_tol: float
    sqrt_rho: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def n(self) -> int:
        return len(self.derivs)

    @property
    def support_mask(self) -> np.ndarray:
        return self.eigen.values > self.rank_tol

    @property
    def support_rank(self) -> int:
        return int(np.count_nonzero(self.support_mask))

    @property
    def support_values(self) -> np.ndarray:
        return self.eigen.values[self.support_mask]

    @property
    def support_vectors(self) -> np.ndarray:
        return self.eigen.vectors[:, self.support_mask]

    @property
    def support_projector(self) -> np.ndarray:
        v = self.support_vectors
        return v @ linalg.dagger(v)

    @property
    def is_pure(self) -> bool:
        return self.support_rank == 1

    @classmethod
    def from_matrices(
        cls,
        rho: np.ndarray,
        derivs: Sequence[np.ndarray],
        rank_tol: float | None = None,
    ) -> "EvaluatedState":
        """Build directly from a density matrix and its derivative list."""
        rho = linalg.check_hermitian(rho)
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvalidState(f"trace(rho) = {tr:.12g}, expected 1")
        es = linalg.eigh(rho)
        if float(np.min(es.values)) < EIG_FLOOR:
            raise InvalidState(
                f"state has eigenvalue {float(np.min(es.values)):.3e} < {EIG_FLOOR:.0e}"
            )
        tol = linalg.relative_rank_tol(es.values) if rank_tol is None else float(rank_tol)
        stack = linalg.hermitian_part(_operator_stack(derivs, rho.shape[0], "derivative", 1e-8))
        tr_d = np.abs(np.trace(stack, axis1=1, axis2=2))
        message = "derivative {j} has trace {value:.3e}, expected 0"
        linalg.check_each(tr_d, DERIV_TRACE_ATOL, InvalidState, message)
        return cls(
            rho=rho,
            derivs=tuple(stack),
            eigen=es,
            rank_tol=tol,
            sqrt_rho=linalg.sqrt_psd(rho, rank_tol=tol, eigen=es),
        )


def default_fd_step(x0: np.ndarray) -> float:
    """Step balancing truncation and roundoff for second-order differences."""
    return 1e-5 * max(1.0, float(np.max(np.abs(x0))) if x0.size else 1.0)


def finite_diff_derivs(
    family: StateFamily, x0: Sequence[float], h: float
) -> list[np.ndarray]:
    """Central finite-difference derivatives, symmetrized to exact Hermitian."""
    if h <= 0:
        raise DerivativeFailure(f"finite-difference step must be positive, got {h}")
    x0 = np.asarray(x0, dtype=float)
    out = []
    for j in range(family.n):
        step = np.zeros(family.n)
        step[j] = h
        diff = (family.rho(x0 + step) - family.rho(x0 - step)) / (2.0 * h)
        dev = float(np.max(np.abs(diff - linalg.dagger(diff))))
        if dev > 1e-8:
            raise DerivativeFailure(
                f"derivative {j} non-Hermitian by {dev:.3e} after finite differences"
            )
        out.append(linalg.hermitian_part(diff))
    return out


def evaluate(
    family: StateFamily,
    x0: Sequence[float],
    fd_step: float | None = None,
    rank_tol: float | None = None,
) -> EvaluatedState:
    """Evaluate the family at ``x0``: state, eigensystem, derivatives.

    Linear families get exact derivatives (the generators); callable
    families use central finite differences with step ``fd_step``.
    """
    x0 = np.asarray(x0, dtype=float)
    rho = family.rho(x0)
    if family.is_linear:
        derivs: Sequence[np.ndarray] = family.generators
    else:
        derivs = finite_diff_derivs(family, x0, fd_step or default_fd_step(x0))
    return EvaluatedState.from_matrices(rho, derivs, rank_tol=rank_tol)


# --- JSON serialization -----------------------------------------------------
#
# Schema: { "dim": int, "n": int, "rho0": matrix, "generators": [matrix, ...],
#           "x0": [float, ...], "labels": [str, ...] }
# where a matrix is a nested row-major array of [re, im] pairs.


def _matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_json(data: list) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise InvalidState("matrix JSON must be nested rows of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def family_to_dict(family: StateFamily, x0: Sequence[float] | None = None) -> dict:
    if not family.is_linear:
        raise InvalidState("only linear families are JSON-serializable")
    if x0 is None:
        x0 = np.zeros(family.n)
    return {
        "dim": family.dim,
        "n": family.n,
        "rho0": _matrix_to_json(family.rho0),
        "generators": [_matrix_to_json(g) for g in family.generators],
        "x0": [float(v) for v in np.asarray(x0, dtype=float)],
        "labels": list(family.labels),
    }


def family_from_dict(data: dict) -> tuple[StateFamily, np.ndarray]:
    try:
        rho0 = _matrix_from_json(data["rho0"])
        gens = [_matrix_from_json(g) for g in data["generators"]]
    except KeyError as exc:
        raise InvalidState(f"state JSON missing field {exc}") from exc
    labels = data.get("labels")
    family = StateFamily.linear(rho0, gens, labels=labels)
    if "dim" in data and int(data["dim"]) != family.dim:
        raise InvalidState(f"declared dim {data['dim']} != matrix dim {family.dim}")
    if "n" in data and int(data["n"]) != family.n:
        raise InvalidState(f"declared n {data['n']} != generator count {family.n}")
    x0 = np.asarray(data.get("x0", np.zeros(family.n)), dtype=float)
    if x0.shape != (family.n,):
        raise InvalidState(f"x0 has length {x0.shape[0]}, expected {family.n}")
    return family, x0


def load_family(path: str) -> tuple[StateFamily, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_dict(json.load(fh))


def save_family(path: str, family: StateFamily, x0: Sequence[float] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_dict(family, x0), fh, indent=2, sort_keys=True)
        fh.write("\n")
