"""Exception types shared across the package.

The usage errors, raised for input that the caller can correct, also
derive from ValueError; the CLI exits with status 2 for them and with
status 1 for every other error of the package.  The iii-b outcome, a map
with no Hamiltonian, is no error: it is ``GeneratorFamily.obstruction``.
The errors only verify's oracles raise (``CriticalTau``,
``ZeroEigenvalue``, ``NotApplicable``) are defined in ``verify``.
"""

from __future__ import annotations


class ShadowOscError(Exception):
    """Base class for all errors raised by this package.

    It pickles as its type, its args and its attributes, and unpickles
    without running a subclass's constructor again, which may take other
    arguments than the message it stores (``NotSymplectic``'s residual): an
    error raised while a forked child writes a row range reaches the caller
    as it was raised.
    """

    def __reduce__(self):
        return _restored, (type(self), self.args, self.__dict__)


def _restored(cls: type, args: tuple, state: dict) -> ShadowOscError:
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


class InvalidTau(ShadowOscError, ValueError):
    """Time increment must be strictly positive."""


class NonFinite(ShadowOscError, ValueError):
    """A matrix entry or the time increment is infinite or NaN."""


class NotSymplectic(ShadowOscError, ValueError):
    """Determinant differs from one beyond tolerance."""

    def __init__(self, residual: float, message: str | None = None):
        self.residual = residual
        super().__init__(message or f"determinant differs from 1 by {residual:.3e}")


class BadParams(ShadowOscError, ValueError):
    """Scalar-case parameters violate the constraint c1**2 + c2*c3 = 1."""


class NotTraceless(ShadowOscError):
    """Generator trace exceeds tolerance; no quadratic Hamiltonian exists."""


class OutOfRange(ShadowOscError):
    """A computed result leaves the range of double precision."""


class UnknownIntegrator(ShadowOscError, ValueError):
    """Name not present in the integrator registry."""
