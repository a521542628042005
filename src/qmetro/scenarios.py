"""Worked-example scenarios: a qubit with three Bloch parameters and a
qutrit with Gell-Mann generators, plus their closed-form combinatorics.

The closed forms (binomial for the qubit, trinomial for the qutrit) give
exact per-copy tradeoff values at delta = 0 for any p, which the
irrep-block engine of :mod:`qmetro.tensor` must reproduce; they double
as regression fixtures and as CLI presets.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import InvalidSpec, OutOfRange
from .states import StateFamily
from .tensor import TradeoffMatrix

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = (SIGMA1, SIGMA2, SIGMA3)

# The standard Gell-Mann ordering; the qutrit tradeoff-matrix layout
# depends on it, so it is pinned here.
GELL_MANN = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=np.complex128),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=np.complex128),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=np.complex128),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=np.complex128),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=np.complex128),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=np.complex128),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=np.complex128),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=np.complex128) / np.sqrt(3.0),
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Preset identifier: kind, fixed offset delta, and (qutrit) the
    1-based Gell-Mann directions actually estimated.  A spec is validated
    once, when it is built (InvalidSpec), so every spec in hand is valid."""

    kind: str  # "qubit3" | "qutrit"
    delta: float = 0.0
    subset: tuple[int, ...] = ()

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.kind == "qubit3":
            if abs(self.delta) >= 1.0:
                raise InvalidSpec(f"qubit3 needs |delta| < 1, got {self.delta}")
        elif self.kind == "qutrit":
            if not self.subset:
                raise InvalidSpec("qutrit scenario needs a nonempty subset")
            if any(j < 1 or j > 8 for j in self.subset):
                raise InvalidSpec(f"qutrit subset out of range 1..8: {self.subset}")
            if len(set(self.subset)) != len(self.subset):
                raise InvalidSpec(f"qutrit subset has duplicates: {self.subset}")
            if len(self.subset) < 2:
                raise InvalidSpec("need at least two estimated parameters")
            if abs(self.delta) >= 2.0 / 3.0:
                raise InvalidSpec(f"qutrit offset delta = {self.delta} leaves the state cone")
        else:
            raise InvalidSpec(f"unknown scenario kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "qubit3":
            return "qubit3"
        if len(self.subset) == 8:
            return "qutrit8"
        return "qutrit:" + ",".join(str(j) for j in self.subset)


_QUTRIT_RE = re.compile(r"^qutrit:(\d+(?:,\d+)*)$")


def parse_scenario(text: str, delta: float = 0.0) -> ScenarioSpec:
    """Parse a preset id: "qubit3", "qutrit8", or "qutrit:1,2,5"."""
    text = text.strip()
    if text == "qubit3":
        return ScenarioSpec(kind="qubit3", delta=delta)
    if text == "qutrit8":
        return ScenarioSpec(kind="qutrit", delta=delta, subset=tuple(range(1, 9)))
    m = _QUTRIT_RE.match(text)
    if not m:
        raise InvalidSpec(f"unknown preset {text!r}")
    subset = tuple(int(v) for v in m.group(1).split(","))
    return ScenarioSpec(kind="qutrit", delta=delta, subset=subset)


def build_scenario(spec: ScenarioSpec) -> StateFamily:
    """The preset's linear state family around x = 0.  The spec was
    validated when it was built, and the generators are built and checked
    once per process (:func:`_preset_family`); a call forms and checks
    only rho0(delta)."""
    family = _preset_family(spec.kind, spec.subset)
    if spec.kind == "qubit3":
        rho0 = 0.5 * (np.eye(2, dtype=np.complex128) + spec.delta * SIGMA3)
    else:
        rho0 = np.eye(3, dtype=np.complex128) / 3.0 + spec.delta * (0.5 * GELL_MANN[2])
    return family.with_rho0(rho0)


@functools.cache
def _preset_family(kind: str, subset: tuple[int, ...]) -> StateFamily:
    """The preset's family at delta = 0, kept for the process (one entry
    per preset) with its arrays read-only, because every call of
    :func:`build_scenario` shares them."""
    if kind == "qubit3":
        rho0 = 0.5 * np.eye(2, dtype=np.complex128)
        gens = [0.5 * s for s in PAULI]
        labels = ("x1", "x2", "x3")
    else:
        rho0 = np.eye(3, dtype=np.complex128) / 3.0
        gens = [0.5 * GELL_MANN[j - 1] for j in subset]
        labels = tuple(f"x{j}" for j in subset)
    family = StateFamily.linear(rho0, gens, labels=labels)
    for a in (*family.generators, family.deriv_stack):
        a.flags.writeable = False
    return family


# --- qubit closed forms --------------------------------------------------------


def qubit_collective_z_norm(p: int) -> Fraction:
    """Trace norm of the p-site sum of sigma_3 embeddings.

    Eigenvalues are 2s - p with multiplicity C(p, s), which collapses to
    2p C(p-1, (p-1)/2) for odd p and p C(p, p/2) for even p.
    """
    if p < 1:
        raise OutOfRange(f"p must be >= 1, got {p}")
    if p % 2 == 1:
        return Fraction(2 * p * math.comb(p - 1, (p - 1) // 2))
    return Fraction(p * math.comb(p, p // 2))


def qubit_np(p: int) -> float:
    """N_p = 2^-p ||sigma_3p||_1, the per-pair C_p entry at delta = 0."""
    return float(qubit_collective_z_norm(p) / Fraction(2) ** p)


def qubit_cp_closed(p: int) -> TradeoffMatrix:
    """Closed-form C_p for the qubit preset at delta = 0 (all pairs equal N_p)."""
    val = qubit_np(p)
    entries = val * (np.ones((3, 3)) - np.eye(3))
    return TradeoffMatrix(kind="C", p=p, entries=entries, meta={"closed_form": True})


def qubit_tp_entry(p: int, delta: float) -> float:
    """(T_p)_{12} = 2^-p sum_s C(p,s) (1+d)^s (1-d)^(p-s) |2s - p|."""
    if p < 1:
        raise OutOfRange(f"p must be >= 1, got {p}")
    total = 0.0
    for s in range(p + 1):
        total += math.comb(p, s) * (1 + delta) ** s * (1 - delta) ** (p - s) * abs(2 * s - p)
    return total / 2.0**p


def qubit_tp_closed(p: int, delta: float) -> TradeoffMatrix:
    """Closed-form T_p for the qubit preset: only the (1,2) pair survives."""
    entries = np.zeros((3, 3))
    entries[0, 1] = entries[1, 0] = qubit_tp_entry(p, delta)
    return TradeoffMatrix(kind="T", p=p, entries=entries, meta={"closed_form": True})


# --- qutrit closed forms --------------------------------------------------------


def trinomial(p: int, s: int) -> int:
    """Coefficient of x^(p+s) in (1 + x + x^2)^p; symmetric in s."""
    if p < 0 or abs(s) > p:
        raise OutOfRange(f"need |s| <= p, got p={p}, s={s}")
    total = 0
    for i in range(p + 1):
        k = p - abs(s) - i
        if 0 <= k <= 2 * p - 2 * i:
            total += (-1) ** i * math.comb(p, i) * math.comb(2 * p - 2 * i, k)
    return total


def qutrit_np(p: int) -> int:
    """N_p = sum_{s=0}^p s * trinomial(p, s)."""
    if p < 1:
        raise OutOfRange(f"p must be >= 1, got {p}")
    return sum(s * trinomial(p, s) for s in range(p + 1))


def _qutrit_generators(spec: ScenarioSpec) -> list[np.ndarray]:
    return [0.5 * GELL_MANN[j - 1] for j in spec.subset]


def qutrit_c1(spec: ScenarioSpec) -> np.ndarray:
    """(C_1)_{jk} = ||[G_j, G_k]||_1 for the subset, at delta = 0."""
    gens = _qutrit_generators(spec)
    n = len(gens)
    out = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            out[j, k] = out[k, j] = linalg.trace_norm(linalg.commutator(gens[j], gens[k]))
    return out


def _require_delta_zero(spec: ScenarioSpec) -> None:
    if spec.kind != "qutrit":
        raise InvalidSpec("closed form applies to the qutrit preset")
    if spec.delta != 0.0:
        raise InvalidSpec("qutrit closed forms hold at delta = 0 only")


def qutrit_cp_closed(spec: ScenarioSpec, p: int) -> TradeoffMatrix:
    """(C_p)_{jk} = (C_1)_{jk} N_p / 3^(p-1), exact for every p at delta = 0."""
    _require_delta_zero(spec)
    if p < 1:
        raise OutOfRange(f"p must be >= 1, got {p}")
    scale = float(Fraction(qutrit_np(p), 3 ** (p - 1)))
    entries = qutrit_c1(spec) * scale
    return TradeoffMatrix(kind="C", p=p, entries=entries, meta={"closed_form": True})


def qutrit_tp_closed(spec: ScenarioSpec, p: int) -> TradeoffMatrix:
    """Triple-sum T_p over occupations (s, r, p-s-r) of the three
    eigenvectors, delta = 0: weights 3^-p multinomial, values from the
    diagonal commutator elements of the reparametrized generators."""
    _require_delta_zero(spec)
    if p < 1:
        raise OutOfRange(f"p must be >= 1, got {p}")
    gens = _qutrit_generators(spec)
    n = len(gens)
    # At delta = 0: F_Q = (3/2) I, so the tilde operators are sqrt(6) G_j.
    tilde = [math.sqrt(6.0) * g for g in gens]
    entries = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            comm = linalg.commutator(tilde[j], tilde[k])
            c = np.imag(np.diag(comm))
            total = 0.0
            for s in range(p + 1):
                for r in range(p - s + 1):
                    weight = math.comb(p, s) * math.comb(p - s, r)
                    val = abs(s * c[0] + r * c[1] + (p - s - r) * c[2])
                    total += weight * val
            entries[j, k] = entries[k, j] = 0.5 * total / 3.0**p
    return TradeoffMatrix(kind="T", p=p, entries=entries, meta={"closed_form": True})
