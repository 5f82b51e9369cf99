"""Eigenstructure taxonomy of real 2x2 unit-determinant matrices.

A symplectic one-step map R has eigenvalues T/2 +- d, T = r1 + r4, with
+-d those of its traceless part K = R - (T/2) I: d**2 = k11**2 + r2*r3,
k11 = (r1 - r4)/2.

    ii    K = 0                  R = +-I, eigenvalue +-1 twice
    iii-a d**2 = 0, T > 0        defective, similar to [[1, 1], [0, 1]]
    iii-b d**2 = 0, T < 0        defective, similar to [[-1, 1], [0, -1]]
    i-a   d**2 < 0               conjugate pair on the unit circle
    i-b   d**2 > 0, T > 0        real pair y > 1 > 1/y > 0
    i-c   d**2 > 0, T < 0        real pair y < -1 < 1/y < 0

K = 0 means max|K| <= ROUNDING * max|R|, so a map 1e-9 from +-I is still
distinct; a built-in's K (``TransitionMatrix.k11`` given) is held to
ROUNDING * max|R| * min(1, tau) at a normal tau, so a step of tau = 1e-100
is a rotation, not the identity.  d**2 = 0 means |d**2| <= TOL * (k11**2 +
|r2*r3|), the scale of its terms.  The representative eigenvalue
y = T/2 + d, d with the sign of T when real, has no cancellation: angle in
(0, pi) for i-a, y > 1 for i-b, y < -1 for i-c.  ``criticality_gap`` gives
|T**2 - 4| to flag near-ridge input.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from .algebra import ROUNDING, Mat2C, Value, exceeds
from .integrators import TransitionMatrix


class CaseTag(str, Enum):
    IA = "i-a"
    IB = "i-b"
    IC = "i-c"
    II_PLUS = "ii(+)"
    II_MINUS = "ii(-)"
    IIIA = "iii-a"
    IIIB = "iii-b"

    def __str__(self) -> str:  # serialize to the bare label
        return self.value


DISTINCT_TAGS = (CaseTag.IA, CaseTag.IB, CaseTag.IC)
SCALAR_TAGS = (CaseTag.II_PLUS, CaseTag.II_MINUS)
_NORMAL = sys.float_info.min  # the smallest normal float


class EigenStructure(Value):
    """Representative eigenvalue data; the partner eigenvalue is 1/eigenvalue.

    ``d`` is the eigenvalue of K = R - (T/2) I in eigenvalue = T/2 + d; 0 if
    degenerate.  ``jordan_basis`` is present only for defective maps: its columns are a
    unit eigenvector v and a generalized vector w with K w = v, so that
    R = P J P^{-1} with J the upper-triangular Jordan block.
    """

    __slots__ = ("eigenvalue", "angle", "modulus", "degenerate", "d", "jordan_basis")

    def __init__(self, eigenvalue: complex, angle: float, modulus: float, degenerate: bool,
                 d: complex, jordan_basis: Mat2C | None = None):
        _set_eigenvalue(self, eigenvalue)
        _set_angle(self, angle)
        _set_modulus(self, modulus)
        _set_degenerate(self, degenerate)
        _set_d(self, d)
        _set_jordan_basis(self, jordan_basis)


_set_eigenvalue, _set_angle, _set_modulus, _set_degenerate, _set_d, _set_jordan_basis = \
    EigenStructure._setters


def criticality_gap(r: TransitionMatrix) -> float:
    """|T**2 - 4|, the distance from the degenerate ridge."""
    t = r.trace()
    return abs((t - 2.0) * (t + 2.0))


def classify(r: TransitionMatrix) -> tuple[CaseTag, EigenStructure]:
    """Assign the taxonomy tag and extract the representative eigenstructure."""
    t = r.trace()
    k11, k12, k21, k22 = r.traceless()
    square, off = k11 * k11, k12 * k21
    # where the band k11**2 + |k12*k21| is not normal, and only there (a blanket
    # rescale may underflow k12*k21), read d**2 on K / 2**e, 2**e about |d|; scale d back
    e = 0 if _NORMAL <= square + abs(off) < math.inf else \
        math.frexp(max(abs(k11), math.sqrt(abs(k12)) * math.sqrt(abs(k21))))[1]
    if e:
        square, off = math.ldexp(k11, -e) ** 2, math.ldexp(k12, -e) * math.ldexp(k21, -e)
    d_sq = square + off
    plus = t > 0
    # a built-in's step moves by about tau, so below tau = 1 its K rounds on
    # that scale; a subnormal tau, whose K has lost digits, is read as any map's
    k_max, bound = max(abs(k11), abs(k12), abs(k21)), ROUNDING * r.max_abs()
    if k_max <= bound and (r.k11 is None or r.tau < _NORMAL or k_max <= bound * r.tau):
        tag, basis = (CaseTag.II_PLUS if plus else CaseTag.II_MINUS), None
    elif not exceeds(abs(d_sq), square + abs(off)):
        tag = CaseTag.IIIA if plus else CaseTag.IIIB
        basis = _jordan_basis(k11, k12, k21, k22)
    else:
        root = math.ldexp(math.sqrt(abs(d_sq)), e)
        if d_sq < 0.0:
            tag, d = CaseTag.IA, complex(0.0, root)
        else:
            tag = CaseTag.IB if plus else CaseTag.IC
            d = complex(root if plus else -root, 0.0)
        y = t / 2.0 + d
        return tag, EigenStructure(y, math.atan2(y.imag, y.real), abs(y), False, d)
    y = complex(1.0 if plus else -1.0, 0.0)
    return tag, EigenStructure(y, 0.0 if plus else math.pi, 1.0, True, 0j, basis)


def _jordan_basis(k11: float, k12: float, k21: float, k22: float) -> Mat2C:
    """Columns [v w]: unit eigenvector v of K = [[k11, k12], [k21, k22]], K w = v.

    K is nonzero and nilpotent, so rank one with ker K = im K: v is the
    larger column of K and w the matching scaled basis vector.
    """
    norm0 = math.hypot(k11, k21)
    norm1 = math.hypot(k12, k22)
    if norm0 >= norm1:
        return Mat2C(k11 / norm0, 1.0 / norm0, k21 / norm0, 0.0)
    return Mat2C(k12 / norm1, 0.0, k22 / norm1, 1.0 / norm1)
