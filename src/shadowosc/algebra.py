"""Complex 2x2 matrix arithmetic: branch logarithms and exponentials.

Everything is plain double precision on top of ``cmath``; matrices, like
every record of the package, are immutable ``Value``s.  ``taylor_exp`` is a
bare partial sum, an oracle independent of the closed-form ``closed_exp``.

Branch convention used throughout the package: a nonzero complex number is
written modulus * exp(i*theta) with theta in (-pi, pi], negative reals at
+pi, and the branch-m logarithm is log(modulus) + i*(theta + 2*pi*m).

Tolerance policy: every runtime check reads ``TOL`` against the scale of
its own data through ``exceeds``; only the scalar-map test in ``classify``
reads ``ROUNDING`` instead.
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import attrgetter

from .errors import ZeroEigenvalue

DEFAULT_EXP_TERMS = 40
ROUNDING = 16.0 * sys.float_info.epsilon
TOL = 1e-9


def exceeds(residual: float, scale: float) -> bool:
    """True when the residual is above TOL * scale, NaN or infinite."""
    return not residual <= TOL * scale or residual == math.inf


class Value:
    """Immutable record whose fields are its class's ``__slots__``, in the order
    of its constructor's parameters; ``__init__`` validates, then ``_store``s.
    As with frozen dataclasses, values of one class with equal fields are equal
    and hash equal, print as ``Name(field=value, ...)``, pickle and copy through
    the constructor (validating again), and raise ``FrozenInstanceError`` (the
    only use of ``dataclasses``) when an attribute is assigned or deleted.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _store(self, *values) -> None:
        """Set the fields, in ``__slots__`` order; only ``__init__`` calls this."""
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))


class Mat2C(Value):
    """Immutable 2x2 complex matrix [[e11, e12], [e21, e22]], a ``Value``.

    The constructor coerces each entry to ``complex`` once, through the slot
    setters; every other operation reads the stored entries.
    """

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11: complex, e12: complex, e21: complex, e22: complex):
        _set_e11(self, complex(e11))
        _set_e12(self, complex(e12))
        _set_e21(self, complex(e21))
        _set_e22(self, complex(e22))

    @staticmethod
    def identity() -> "Mat2C":
        return Mat2C(1.0, 0.0, 0.0, 1.0)

    def trace(self) -> complex:
        return self.e11 + self.e22

    def det(self) -> complex:
        return self.e11 * self.e22 - self.e12 * self.e21

    def scaled(self, s: complex) -> "Mat2C":
        return Mat2C(s * self.e11, s * self.e12, s * self.e21, s * self.e22)

    def __add__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(self.e11 + other.e11, self.e12 + other.e12,
                     self.e21 + other.e21, self.e22 + other.e22)

    def __sub__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(self.e11 - other.e11, self.e12 - other.e12,
                     self.e21 - other.e21, self.e22 - other.e22)

    def __matmul__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def apply(self, q: complex, p: complex) -> tuple[complex, complex]:
        """Apply to a phase vector ordered (q, p)."""
        return (self.e11 * q + self.e12 * p, self.e21 * q + self.e22 * p)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.e11, self.e12, self.e21, self.e22)

    def max_abs(self) -> float:
        return max(abs(self.e11), abs(self.e12), abs(self.e21), abs(self.e22))


# The constructor is the only writer of the entries.
_set_e11, _set_e12, _set_e21, _set_e22 = Mat2C._setters


def max_diff(a: Mat2C, b: Mat2C) -> float:
    """Entrywise maximum absolute difference; NaN if any difference is NaN."""
    return nan_max(abs(a.e11 - b.e11), abs(a.e12 - b.e12), abs(a.e21 - b.e21),
                   abs(a.e22 - b.e22))


def nan_max(*values: float) -> float:
    """Largest of non-negative values; NaN if any is, as their sum is (``max`` may drop it)."""
    return math.nan if math.isnan(sum(values)) else max(values)


def principal_polar(y: complex) -> tuple[float, float]:
    """Write y = modulus * exp(i*theta) with theta in (-pi, pi].

    Negative reals map to theta = +pi exactly.  Raises ZeroEigenvalue for
    y = 0, which would correspond to a singular transition matrix.
    """
    y = complex(y)
    if y == 0:
        raise ZeroEigenvalue("zero has no polar angle or logarithm")
    # adding 0.0 normalizes a negative-zero imaginary part so that
    # atan2 lands on +pi for negative reals
    theta = math.atan2(y.imag + 0.0, y.real)
    return abs(y), theta


def log_branch(y: complex, branch: int) -> complex:
    """Branch-m logarithm: log|y| + i*theta + i*2*pi*branch."""
    modulus, theta = principal_polar(y)
    return complex(math.log(modulus), theta + 2.0 * math.pi * branch)


# Entries of Mat2C.identity(); taylor_exp starts from them and closed_exp
# multiplies by them.
_ONE = complex(1.0, 0.0)
_ZERO = complex(0.0, 0.0)


def taylor_exp(z: Mat2C, terms: int = DEFAULT_EXP_TERMS) -> Mat2C:
    """Partial sum of the exponential series, sum_{k=0..terms} z**k / k!.

    No scaling or squaring: the raw series, useful as an oracle whenever
    the truncation tail is provably small for the input at hand.  The sum
    runs on the entries of the term and the accumulator, with the
    operations of ``term = (term @ z).scaled(1/k)`` and ``acc = acc + term``
    in their order, and builds one ``Mat2C`` at the end.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    z11, z12, z21, z22 = z.entries()
    a11, a12, a21, a22 = t11, t12, t21, t22 = _ONE, _ZERO, _ZERO, _ONE
    for k in range(1, terms + 1):
        s = 1.0 / k
        t11, t12, t21, t22 = (s * (t11 * z11 + t12 * z21), s * (t11 * z12 + t12 * z22),
                              s * (t21 * z11 + t22 * z21), s * (t21 * z12 + t22 * z22))
        a11, a12, a21, a22 = a11 + t11, a12 + t12, a21 + t21, a22 + t22
    return Mat2C(a11, a12, a21, a22)


def closed_exp(z: Mat2C) -> Mat2C:
    """Closed-form exponential of a 2x2 complex matrix.

    The eigenvalues are x = mu +- d with mu the half-trace, and

        exp(z) = e^mu (cosh(d) I + sinh(d)/d * (z - mu I)).

    cosh(d) and sinh(d)/d are even in d, so they are evaluated from d**2
    (a series below the crossover), which stays fully conditioned through
    the defective limit d -> 0 where the identity degenerates to the
    exact nilpotent form e^mu (I + (z - mu I)).  The products with the
    identity's entries are kept, as ``Mat2C.scaled`` would form them, so
    signed zeros and non-finite parts propagate the same.
    """
    e11, e12, e21, e22 = z.entries()
    mu = (e11 + e22) / 2.0
    mu_one, mu_zero = mu * _ONE, mu * _ZERO
    # z - mu I: traceless, eigenvalues +-d
    o11, o12, o21, o22 = e11 - mu_one, e12 - mu_zero, e21 - mu_zero, e22 - mu_one
    d_sq = o11 * o11 + o12 * o21
    if abs(d_sq) < 1e-8:
        cosh_d = 1.0 + d_sq / 2.0 + d_sq * d_sq / 24.0
        sinch_d = 1.0 + d_sq / 6.0 + d_sq * d_sq / 120.0
    else:
        d = cmath.sqrt(d_sq)
        cosh_d = cmath.cosh(d)
        sinch_d = cmath.sinh(d) / d
    c_one, c_zero = cosh_d * _ONE, cosh_d * _ZERO
    scale = cmath.exp(mu)
    return Mat2C(scale * (c_one + sinch_d * o11), scale * (c_zero + sinch_d * o12),
                 scale * (c_zero + sinch_d * o21), scale * (c_one + sinch_d * o22))


def re_im(z: complex) -> dict[str, float]:
    """JSON-friendly {re, im} pair for a complex value."""
    z = complex(z)
    return {"re": z.real, "im": z.imag}
