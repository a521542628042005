"""Parametrized density-matrix families and their evaluation.

A :class:`StateFamily` is either *linear*, ``rho(x) = rho0 + sum_j x_j G_j``
with Hermitian traceless generators, or a black-box callable ``x -> rho``.
Evaluating a family at a working point produces an :class:`EvaluatedState`
holding the state, its eigensystem, the support, and the partial
derivatives (exact for linear families, central finite differences for
callables).

Each check runs once per input.  The n generators or derivatives are
validated as one (n, d, d) stack: Hermiticity and trace are checked on
the whole stack at once, and each error names the first offending index.
A linear family's generators are checked once, in
:meth:`StateFamily.linear`, which keeps their Hermitian part as
``deriv_stack``; :func:`evaluate` hands that stack to the state as it is
and checks only rho.  :meth:`EvaluatedState.from_matrices`, the entry for
outside callers, checks rho and every derivative.  The fields stay tuples
of (d, d) arrays.  rho's Hermiticity is checked inside :func:`linalg.eigh`,
whose one eigensolve serves the support, the PSD check and ``sqrt_rho``,
which is computed from it on first read.
The CLI presets are built once per process (:mod:`qmetro.scenarios`), so a
preset call checks only its rho0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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


def _traceless_part(stack: np.ndarray, label: str) -> np.ndarray:
    """The Hermitian part of a checked operator stack, each operator
    checked traceless: the derivatives of rho."""
    herm = linalg.hermitian_part(stack)
    tr = np.abs(np.trace(herm, axis1=1, axis2=2))
    message = f"{label} {{j}} has trace {{value:.3e}}, expected 0"
    linalg.check_each(tr, DERIV_TRACE_ATOL, InvalidState, message)
    return herm


def _checked_rho0(rho0: np.ndarray) -> np.ndarray:
    """rho0 as a complex Hermitian matrix of unit trace."""
    rho0 = linalg.check_hermitian(rho0)
    tr = complex(np.trace(rho0))
    if abs(tr - 1.0) > 1e-10:
        raise InvalidState(f"trace(rho0) = {tr:.12g}, expected 1")
    return rho0


def _checked_rho(rho: np.ndarray) -> tuple[np.ndarray, EigenSystem]:
    """rho as a complex matrix with its eigensystem; :func:`linalg.eigh`
    checks Hermiticity, then the trace and the smallest eigenvalue."""
    rho = linalg.as_matrix(rho)
    es = linalg.eigh(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise InvalidState(f"trace(rho) = {tr:.12g}, expected 1")
    if float(np.min(es.values)) < EIG_FLOOR:
        raise InvalidState(
            f"state has eigenvalue {float(np.min(es.values)):.3e} < {EIG_FLOOR:.0e}"
        )
    return rho, es


@dataclass(frozen=True)
class StateFamily:
    """A parametrized family of density matrices.

    Exactly one of (``rho0``, ``generators``) or ``func`` is set.  The
    parameter count must be at least 2: the incompatibility measure is a
    multi-parameter notion.  A linear family also holds ``deriv_stack``,
    the Hermitian part of its checked generators as one (n, d, d) stack;
    build one with :meth:`linear`, which checks every input.
    """

    dim: int
    n: int
    labels: tuple[str, ...]
    rho0: np.ndarray | None = None
    generators: tuple[np.ndarray, ...] | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None
    deriv_stack: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def linear(
        cls,
        rho0: np.ndarray,
        generators: Sequence[np.ndarray],
        labels: Sequence[str] | None = None,
    ) -> "StateFamily":
        rho0 = _checked_rho0(rho0)
        d = rho0.shape[0]
        n = len(generators)
        if n < 2:
            raise InvalidState(f"need n >= 2 parameters, got {n}")
        gens = _operator_stack(generators, d, "generator", linalg.HERMITIAN_ATOL)
        if labels is None:
            labels = tuple(f"x{j + 1}" for j in range(n))
        return cls(dim=d, n=n, labels=tuple(labels), rho0=rho0, generators=tuple(gens),
                   deriv_stack=_traceless_part(gens, "generator"))

    def with_rho0(self, rho0: np.ndarray) -> "StateFamily":
        """This linear family around another ``rho0``, checked as in
        :meth:`linear`; the generators and their checked stack are kept."""
        if np.shape(rho0) != (self.dim, self.dim):
            raise InvalidState(f"rho0 has shape {np.shape(rho0)}, expected {(self.dim, self.dim)}")
        return replace(self, rho0=_checked_rho0(rho0))

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


class _SqrtRho:
    """The ``sqrt_rho`` field of :class:`EvaluatedState`: a value given
    to the constructor is kept, and otherwise the principal square root
    is computed from the state's eigensystem on first read, since only
    F-bar over a supplied basis and the variational bounds read it."""

    def __get__(self, state, owner=None):
        if state is None:
            return None  # the constructor's default
        value = state.__dict__["_sqrt_rho"]
        if value is None:
            value = linalg.sqrt_psd(state.rho, rank_tol=state.rank_tol, eigen=state.eigen)
            state.__dict__["_sqrt_rho"] = value
        return value

    def __set__(self, state, value):
        state.__dict__["_sqrt_rho"] = value


@dataclass(frozen=True)
class EvaluatedState:
    """A state family evaluated at a working point.

    Holds the full eigensystem of rho; support quantities are exposed as
    properties filtered by ``rank_tol``.  ``sqrt_rho`` is computed on
    first read unless given.  ``deriv_stack`` holds the derivatives as one
    (n, d, d) stack, stacked from ``derivs`` unless given.
    """

    rho: np.ndarray
    derivs: tuple[np.ndarray, ...]
    eigen: EigenSystem
    rank_tol: float
    sqrt_rho: np.ndarray | None = _SqrtRho()
    deriv_stack: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.deriv_stack is None:
            object.__setattr__(self, "deriv_stack", np.asarray(self.derivs, dtype=np.complex128))

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
        """Build directly from a density matrix and its derivative list,
        checking both."""
        rho, es = _checked_rho(rho)
        stack = _operator_stack(derivs, rho.shape[0], "derivative", 1e-8)
        return cls._from_checked(rho, es, _traceless_part(stack, "derivative"), rank_tol)

    @classmethod
    def _from_checked(
        cls, rho: np.ndarray, es: EigenSystem, stack: np.ndarray, rank_tol: float | None
    ) -> "EvaluatedState":
        tol = linalg.relative_rank_tol(es.values) if rank_tol is None else float(rank_tol)
        return cls(
            rho=rho,
            derivs=tuple(stack),
            eigen=es,
            rank_tol=tol,
            deriv_stack=stack,
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

    Linear families get exact derivatives: their generator stack, checked
    when the family was built, so only rho is checked here.  Callable
    families use central finite differences with step ``fd_step``.
    """
    x0 = np.asarray(x0, dtype=float)
    rho = family.rho(x0)
    if family.is_linear:
        rho, es = _checked_rho(rho)
        return EvaluatedState._from_checked(rho, es, family.deriv_stack, rank_tol)
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
