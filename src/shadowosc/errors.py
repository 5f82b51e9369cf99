"""Exception types shared across the package."""

from __future__ import annotations


class ShadowOscError(Exception):
    """Base class for all errors raised by this package."""


class ZeroEigenvalue(ShadowOscError):
    """A zero eigenvalue has no logarithm; the map would be singular."""


class InvalidTau(ShadowOscError):
    """Time increment must be strictly positive."""


class NonFinite(ShadowOscError):
    """A matrix entry or the time increment is infinite or NaN."""


class NotSymplectic(ShadowOscError):
    """Determinant differs from one beyond tolerance."""

    def __init__(self, residual: float, message: str | None = None):
        self.residual = residual
        super().__init__(message or f"determinant differs from 1 by {residual:.3e}")


class Singular(ShadowOscError):
    """Defensive: a matrix reached the classifier with |det| far from 1."""


class NotDefective(ShadowOscError):
    """Jordan-block decomposition requested for a diagonalizable matrix."""


class BadParams(ShadowOscError):
    """Scalar-case parameters violate the constraint c1**2 + c2*c3 = 1."""


class DegenerateBranch(ShadowOscError):
    """The requested branch has a zero generator (identity flow only)."""


class NotTraceless(ShadowOscError):
    """Generator trace exceeds tolerance; no quadratic Hamiltonian exists."""


class CriticalTau(ShadowOscError):
    """Closed forms for the explicit Euler family are undefined at tau = 2."""


class NoHamiltonian(ShadowOscError):
    """No interpolating Hamiltonian exists (defective map with eigenvalue -1).

    Carries the evidence: the label and time increment of the offending
    map plus its eigenstructure including the Jordan similarity basis.
    """

    def __init__(self, label: str, tau: float, eigen: object):
        self.label = label
        self.tau = tau
        self.eigen = eigen
        super().__init__(
            f"{label} at tau={tau:g} is similar to a Jordan block with "
            "eigenvalue -1; no traceless generator and no Hamiltonian exist"
        )


class NotApplicable(ShadowOscError):
    """Operation defined only for bounded real orbits."""


class UnknownIntegrator(ShadowOscError):
    """Name not present in the integrator registry."""
