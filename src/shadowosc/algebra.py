"""Complex 2x2 matrix arithmetic and the exponential.

Everything is plain double precision on top of ``cmath``; matrices, like
every record of the package, are immutable ``Value``s.  ``closed_exps`` is
the package's one evaluator of exp(s Z): a lazy iterator that reads Z's
constants once and yields exp(s Z)'s entries for one s at a time, holding
none.  Every flow sample and every propagator ``verify`` checks come from
it.  ``closed_exp``, its one-s case, builds a ``Mat2C`` through the
constructor: it validates the scalar-case and Jordan branches and serves
``flow.flow_matrix``, neither of them per sample.  A generator that
carries its eigenvalue delta passes it in, so exp(s Z) reads delta as
built, not as recomputed from Z's entries.
Its oracles (``taylor_exp``, ``series_exp``) live in ``verify``.

Branch convention used throughout the package: a nonzero complex number is
written modulus * exp(i*theta) with theta in (-pi, pi], negative reals at
+pi, and the branch-m logarithm is log(modulus) + i*(theta + 2*pi*m).
``shadow`` evaluates it for a map's eigenvalue y = T/2 + d, where unit
determinant gives |y| = sqrt(1 + d**2) + |d| for real d, so log|y| is taken
as asinh|Re d|: exact to rounding however close y is to +-1.

Tolerance policy: each runtime bound, read against the scale of its own
data, and what it guards.

- ``TOL`` (1e-9), through ``exceeds``: exp(Z) against R and a generator's
  trace (``shadow``), the ridge band |d**2| of ``classify``, the realness
  of a Hamiltonian's coefficients, and ``custom``'s determinant, a promise
  about the caller's input rather than a rounding bound.
- ``ROUNDING`` (16 eps): ``classify``'s scalar-map test, |K| against |R|.
- ``integrators.DET_ROUNDING`` (1024 eps): a ``TransitionMatrix``'s
  determinant and k11, held to their forward error, and a ``compose``
  product's, which may also reach the rounding its factors bring.
- ``shadow.PARAM_TOL`` (1e-10) and ``shadow._TERM_ROUNDING`` (4 eps):
  ``CaseIIParams``' residual |c1**2 + c2*c3 - 1|, held to the larger of
  PARAM_TOL and the rounding of the sum's larger term.
- ``flow.whole_steps``' 4 ulps: a ratio t_end / h that close to a whole n
  counts as n steps (a ``sweep`` grid adds the rounding of its own fields,
  ``cli._grid_rounding``).
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterable, Iterator
from operator import attrgetter

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

    The records built per sweep point or per verify propagator (``Mat2C``,
    ``TransitionMatrix``, ``EigenStructure``) unroll ``_store`` into one
    module-level slot setter call per field: on a copy that ``_store``d them,
    a sweep point and a verify suite were measurably slower.  Every other
    record calls ``_store``.
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


_set_e11, _set_e12, _set_e21, _set_e22 = Mat2C._setters


def max_diff(a: Mat2C, b: Mat2C) -> float:
    """Entrywise maximum absolute difference; NaN if any difference is NaN."""
    return nan_max(abs(a.e11 - b.e11), abs(a.e12 - b.e12), abs(a.e21 - b.e21),
                   abs(a.e22 - b.e22))


def nan_max(*values: float) -> float:
    """Largest of non-negative values; NaN if any is, as their sum is (``max`` may drop it)."""
    return math.nan if math.isnan(sum(values)) else max(values)


def closed_exps(z: Mat2C, ss: Iterable[float], delta: complex | None = None
                ) -> Iterator[tuple[complex, complex, complex, complex]]:
    """The entries (e11, e12, e21, e22) of exp(s z) for each s in ss, in turn,
    reading z's constants once; in closed form (Higham, *Functions of
    Matrices*, SIAM 2008, ch. 10).

    With K = z - mu I, mu the half-trace and +-delta the eigenvalues of K,

        exp(s z) = e^(s mu) (cosh(s delta) I + sinh(s delta)/delta K),

    and (cosh, sinh/delta) = (1, s) when delta is exactly 0, where K is
    nilpotent; e^(s mu) multiplies in only for mu != 0.  sinh(s delta)/delta
    has no cancellation for any nonzero delta, so no series is needed.  Either
    sign of delta gives the same result.  A given ``delta`` is taken as it is;
    without one, delta is sqrt(k11**2 + z12*z21), which loses about
    |K|**2 / |delta|**2 of its digits where those products cancel.  Every
    entry is complex.  Lazy: an s is read only when its entries are asked
    for, and no entries are kept, so a pass over any number of s takes the
    same memory; past double range cmath raises where the s is read.
    """
    z11, z12, z21, z22 = z.entries()
    mu = (z11 + z22) / 2.0
    k11, k22 = z11 - mu, z22 - mu
    if delta is None:
        delta = cmath.sqrt(k11 * k11 + z12 * z21)
    cosh, sinh, exp = cmath.cosh, cmath.sinh, cmath.exp
    for s in ss:
        if delta:
            a = s * delta
            c, h = cosh(a), sinh(a) / delta
        else:
            c, h = 1.0, s
        if mu:
            scale = exp(s * mu)
            yield (scale * (c + h * k11), scale * (h * z12), scale * (h * z21),
                   scale * (c + h * k22))
        else:
            yield c + h * k11, h * z12, h * z21, c + h * k22


def closed_exp(z: Mat2C, s: float = 1.0, delta: complex | None = None) -> Mat2C:
    """exp(s z) of a 2x2 complex matrix in closed form: ``closed_exps`` at one s."""
    return Mat2C(*next(closed_exps(z, (s,), delta)))


def re_im(z: complex) -> dict[str, float]:
    """JSON-friendly {re, im} pair for a complex value."""
    z = complex(z)
    return {"re": z.real, "im": z.imag}
