"""Complex 2x2 matrix arithmetic: eigenvalues, branch logarithms, exponentials.

Everything is plain double precision on top of ``cmath``; matrices are
immutable values.  ``taylor_exp`` is deliberately a bare partial sum so it
can serve as an oracle independent of the closed-form ``closed_exp``.

Branch convention used throughout the package: a nonzero complex number is
written modulus * exp(i*theta) with theta in (-pi, pi], negative reals at
+pi, and the branch-m logarithm is log(modulus) + i*(theta + 2*pi*m).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ZeroEigenvalue

DEFAULT_EXP_TERMS = 40


@dataclass(frozen=True)
class Mat2C:
    """Immutable 2x2 complex matrix [[e11, e12], [e21, e22]]."""

    e11: complex
    e12: complex
    e21: complex
    e22: complex

    def __post_init__(self):
        for name in ("e11", "e12", "e21", "e22"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @staticmethod
    def identity() -> "Mat2C":
        return Mat2C(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def zero() -> "Mat2C":
        return Mat2C(0.0, 0.0, 0.0, 0.0)

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
        return max(abs(e) for e in self.entries())


def max_diff(a: Mat2C, b: Mat2C) -> float:
    """Entrywise maximum absolute difference."""
    return max(abs(x - y) for x, y in zip(a.entries(), b.entries()))


def eigenvalues2(m: Mat2C) -> tuple[complex, complex]:
    """Roots of lambda**2 - tr(m)*lambda + det(m), ordered by (re, im) descending.

    An exact double root is returned twice.  Always solvable over C.
    """
    tr = m.trace()
    dt = m.det()
    disc = tr * tr - 4.0 * dt
    s = cmath.sqrt(disc)
    # pick the sign that avoids cancellation in tr + s
    if (tr.conjugate() * s).real < 0.0:
        s = -s
    r1 = (tr + s) / 2.0
    if abs(tr - s) > 1e-3 * (abs(tr) + abs(s)):
        # safe subtraction; keeps conjugate pairs exactly mirrored
        r2 = (tr - s) / 2.0
    else:
        r2 = dt / r1 if r1 != 0 else (tr - s) / 2.0
    roots = sorted((r1, r2), key=lambda z: (z.real, z.imag), reverse=True)
    return roots[0], roots[1]


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


def taylor_exp(z: Mat2C, terms: int = DEFAULT_EXP_TERMS) -> Mat2C:
    """Partial sum of the exponential series, sum_{k=0..terms} z**k / k!.

    No scaling or squaring: the raw series, useful as an oracle whenever
    the truncation tail is provably small for the input at hand.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    acc = Mat2C.identity()
    term = Mat2C.identity()
    for k in range(1, terms + 1):
        term = (term @ z).scaled(1.0 / k)
        acc = acc + term
    return acc


# Entries of Mat2C.identity(); closed_exp_entries multiplies by them, as
# Mat2C.scaled would, so signed zeros and non-finite parts propagate the same.
_ONE = complex(1.0, 0.0)
_ZERO = complex(0.0, 0.0)


def closed_exp_entries(e11: complex, e12: complex, e21: complex,
                       e22: complex) -> tuple[complex, complex, complex, complex]:
    """Entries of ``closed_exp(Mat2C(e11, e12, e21, e22))`` without building a Mat2C.

    Performs the same complex operations in the same order as the matrix
    form, including the products with the identity's entries, so the
    result is bit-for-bit equal to it.
    """
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
    return (scale * (c_one + sinch_d * o11), scale * (c_zero + sinch_d * o12),
            scale * (c_zero + sinch_d * o21), scale * (c_one + sinch_d * o22))


def closed_exp(z: Mat2C) -> Mat2C:
    """Closed-form exponential of a 2x2 complex matrix.

    The eigenvalues are x = mu +- d with mu the half-trace, and

        exp(z) = e^mu (cosh(d) I + sinh(d)/d * (z - mu I)).

    cosh(d) and sinh(d)/d are even in d, so they are evaluated from d**2
    (a series below the crossover), which stays fully conditioned through
    the defective limit d -> 0 where the identity degenerates to the
    exact nilpotent form e^mu (I + (z - mu I)).  The arithmetic lives in
    ``closed_exp_entries``.
    """
    return Mat2C(*closed_exp_entries(z.e11, z.e12, z.e21, z.e22))


def re_im(z: complex) -> dict[str, float]:
    """JSON-friendly {re, im} pair for a complex value."""
    z = complex(z)
    return {"re": z.real, "im": z.imag}
