"""Exception types raised by the qmetro library.

Configuration problems (bad inputs, unsatisfiable preconditions) raise
subclasses of :class:`QmetroError`; genuine numerical impossibilities
(e.g. an RLD that does not exist for a rank-deficient state) get their
own classes so callers can distinguish "you asked for something the
theory does not define" from plain bad arguments.
"""


class QmetroError(Exception):
    """Base class for all qmetro errors."""


class NonHermitian(QmetroError):
    """Matrix failed a Hermitian-symmetry check."""


class NotPsd(QmetroError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class SingularWhenFullRankRequired(QmetroError):
    """Inverse requested at full rank but the matrix is rank deficient."""


class DimMismatch(QmetroError):
    """Operands have incompatible dimensions."""


class DimensionOverflow(QmetroError):
    """An irrep block to be built exceeds the configured dimension cap, or
    a Kronecker power exceeds the cap of ``linalg.kron_power``."""


class InvalidState(QmetroError):
    """Evaluated density matrix is not a valid state (PSD, unit trace)."""


class DerivativeFailure(QmetroError):
    """Finite-difference derivative violated Hermiticity beyond tolerance."""


class UnsupportedDerivative(QmetroError):
    """State derivative has weight outside the blocks the SLD can reach."""


class RldUndefined(QmetroError):
    """RLD does not exist: derivative leaks outside the state's range."""


class SingularQfim(QmetroError):
    """Quantum Fisher information matrix is singular beyond tolerance."""


class EnumerationOverflow(QmetroError):
    """Exact occupation-vector enumeration exceeds the configured cap."""


class IncompleteBasis(QmetroError):
    """Vector set does not resolve the identity within tolerance."""


class InvalidWeight(QmetroError):
    """Weight matrix is not positive semidefinite."""


class KindMismatch(QmetroError):
    """Tradeoff matrix kind does not match the requested bound."""


class NotPure(QmetroError):
    """Pure-state bound requested for a state of support rank > 1."""


class InvalidN(QmetroError):
    """Parameter count outside the multi-parameter regime (n >= 2)."""


class OutOfRange(QmetroError):
    """Combinatorial index outside its valid range."""


class DegenerateConstraints(QmetroError):
    """Local-unbiasedness constraint functionals are linearly dependent."""


class InvalidSpec(QmetroError):
    """Scenario specification is malformed or out of its valid domain."""
