"""Exception types shared across the package."""
from __future__ import annotations


class QptError(Exception):
    """Base class for all package-specific errors."""


class DimMismatch(QptError):
    """Operands live in different dimensions."""


class NotHermitian(QptError):
    """Operator expected to be Hermitian is not, within tolerance."""


class UnknownFactor(QptError):
    """A tensor-factor name is not present in the register layout."""


class NotDensityOperator(QptError):
    """Matrix is not Hermitian, positive, and trace-one within tolerance."""


class ZeroVector(QptError):
    """A (near-)zero vector where a nonzero one is required."""


class NotResolutionOfIdentity(QptError):
    """Projector family is not mutually orthogonal or does not sum to identity."""


class NotInSublattice(QptError):
    """Subspace is not a member of the given determinate sublattice."""


class AlreadyMember(QptError):
    """Subspace is already a member, so extension is a no-op."""


class NotClosed(QptError):
    """Operation requires a lattice set closed under meet/join/complement."""


class BudgetExceeded(QptError):
    """Bounded lattice closure hit its element budget before reaching a fixpoint.

    Carries the partial set built so far in ``partial``.
    """

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


class TableShapeMismatch(QptError):
    """Correlation table shape does not match the settings/outcomes structure."""


class LabelDiscontinuity(QptError):
    """Branch labeling broke down mid-trajectory (reported with the step index)."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class NotNormalized(QptError):
    """Amplitudes do not satisfy the required normalization."""


class RayFileError(QptError):
    """A ray-set data file could not be parsed."""
